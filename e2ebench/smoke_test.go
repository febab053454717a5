package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join([]string{"pipeline-1x", "durable-1x", "dashboard-1x"}, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json names workload %s the program lacks", w)
		}
	}
	same := func(label string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", label, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", label, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmokeEmitsEveryMetric runs every workload at the smoke size —
// a few stream-minutes on a 24-bus city — untraced and traced, and
// checks that the output check passes and every declared metric is
// emitted with its unit. A renamed entry point fails here, not in a
// benchmark run.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"--workload", name, "--seed", "1", "--seconds", "0.001",
					"--trace", trace, "--size", "smoke", "--root", t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var stamp struct {
					Stamp map[string]any `json:"stamp"`
				}
				if err := json.Unmarshal([]byte(lines[0]), &stamp); err != nil {
					t.Fatalf("first line is not the stamp: %v", err)
				}
				for _, k := range []string{"nproc", "gomaxprocs", "go", "seed", "params", "samples"} {
					if _, ok := stamp.Stamp[k]; !ok {
						t.Errorf("stamp lacks %s", k)
					}
				}
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Value == nil {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s in %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if trace == "1" {
					return
				}
				for _, d := range workloadMetrics[name] {
					found := false
					for _, l := range lines[1 : len(lines)-1] {
						f := strings.Fields(l)
						found = found || len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit
					}
					if !found {
						t.Errorf("workload metric %s [%s] not printed", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// Command e2ebench is the end-to-end benchmark of the INSIGHT system:
// it runs one named workload through the system's public API, checks
// the outputs, and prints the workload's metrics. With --trace 0 it
// reports the end-to-end metrics of untraced runs; with --trace 1 it
// repeats the workload with in-memory spans around every call it makes
// into the system, drives the workload's inputs through each layer's
// public entry point in pipeline order, and reports per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"sde_per_s": {"value": 265060.1, "unit": "1/s"}, ...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash e2ebench/run.sh --workload pipeline-1x --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric the benchmark reports and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload's untraced run. They mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sde_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// workloadMetrics are end-to-end metrics only one workload has. They
// are printed beside the shared ones, with their sample counts, but
// stay out of the result object, whose metrics every workload reports.
var workloadMetrics = map[string][]metricDef{
	"durable-1x": {{"recovery_s", "s"}},
	"dashboard-1x": {
		{"report_ms_p50", "ms"}, {"report_ms_p90", "ms"},
		{"map_ms_p50", "ms"}, {"map_ms_p90", "ms"},
	},
}

// ruleNames are the 13 CE definitions of the traffic rule set.
var ruleNames = []string{
	"agree", "busCongestion", "congestionInTheMake", "delayIncrease",
	"densityTrend", "disagree", "flowTrend", "noisy", "noisyScats",
	"scatsCongestion", "scatsIntCongestion", "sourceDisagreement",
	"unusualCongestion",
}

// perLayer are the metrics of the traced run, named by module. They
// mirror BENCHMARK.json.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dublin.generate_s", "s"},
		{"dublin.us_per_sde", "us"},
		{"streams.transport_s", "s"},
		{"wal.append_s", "s"},
		{"wal.bytes_per_sde", "B"},
		{"checkpoint.bytes", "B"},
		{"rtec.snapshot_s", "s"},
		{"rtec.ingest_s", "s"},
		{"rtec.query_s", "s"},
		{"rtec.query_ms_p50", "ms"},
	}
	for _, r := range ruleNames {
		defs = append(defs, metricDef{"rtec.rule." + r + "_s", "s"})
	}
	return append(defs,
		metricDef{"rtec.alloc_bytes_per_sde", "B"},
		metricDef{"rtec.resident_bytes_per_sde", "B"},
		metricDef{"shard.critical_path_s", "s"},
		metricDef{"shard.rebalances", "count"},
		metricDef{"insight.step_self_ms_p50", "ms"},
		metricDef{"crowd.rounds", "count"},
		metricDef{"crowd.select_s", "s"},
		metricDef{"gp.kernel_s", "s"},
		metricDef{"gp.fit_s", "s"},
		metricDef{"gp.predict_s", "s"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.alloc_bytes_per_sde", "B"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"ledger.serial_over_wall", "ratio"},
	)
}()

// measured is one metric value with the note printed beside it
// (sample counts, the percentile actually reported).
type measured struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// outcome is what one benchmark run found.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           []measured
	stamp             map[string]any
}

func (o *outcome) add(name, unit string, v float64, note string) {
	o.metrics = append(o.metrics, measured{Name: name, Value: v, Unit: unit, Note: note})
}

// problem records a failed output check. Boundaries it condemns are
// counted separately, by the caller.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" or "smoke"
	root     string // checkout root: scratch files go under root/.bench_build
	record   string // directory to write the first repetition's outputs to
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&opts.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&opts.size, "size", "full", "input size: full or smoke (a few stream-minutes on a 24-bus city)")
	fs.StringVar(&opts.root, "root", ".", "checkout root; scratch files go under its .bench_build")
	fs.StringVar(&opts.record, "record", "", "write the first repetition's report digest (and flow map) to this directory, for the recorded/ outputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts.trace = trace == 1
	w, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	p, ok := w.sizes[opts.size]
	if !ok {
		return fmt.Errorf("unknown size %q", opts.size)
	}
	if opts.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	scratch := filepath.Join(opts.root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", opts.workload, opts.seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	b := &bench{opts: opts, p: p, scratch: scratch, out: &outcome{}}
	b.out.stamp = map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"size":       opts.size,
		"seconds":    opts.seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"params":     p,
	}
	if opts.trace {
		err := w.traced(b)
		if err == nil && b.tr != nil {
			err = b.tr.write(filepath.Join(opts.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed)))
		}
		if err != nil {
			return err
		}
	} else if err := w.measure(b); err != nil {
		return err
	}
	want, printed := endToEnd, workloadMetrics[opts.workload]
	if opts.trace {
		want, printed = perLayer, nil
	}
	return report(stdout, b.out, want, printed)
}

// report prints the stamp, one line per metric, and the result object
// as the last line. Every metric in want and printed must have been
// measured; only those in want enter the result object.
func report(w io.Writer, o *outcome, want, printed []metricDef) error {
	got := make(map[string]measured, len(o.metrics))
	for _, m := range o.metrics {
		got[m.Name] = m
	}
	result := map[string]map[string]any{}
	for i, d := range append(append([]metricDef(nil), want...), printed...) {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		if i < len(want) {
			result[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	samples := map[string]string{}
	for _, m := range o.metrics {
		if m.Note != "" {
			samples[m.Name] = m.Note
		}
	}
	o.stamp["samples"] = samples
	stamp, err := json.Marshal(map[string]any{"stamp": o.stamp})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(stamp))
	sorted := append([]measured(nil), o.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%-34s %16.6g %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	last, err := json.Marshal(map[string]any{
		"correct":   len(o.problems) == 0 && o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   result,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(last))
	return nil
}

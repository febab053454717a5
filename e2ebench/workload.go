package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// params sizes one workload. Zero Buses/Sensors select the paper's
// fleet (942 buses, 966 sensors).
type params struct {
	// Columnar workloads run the production path, whose generator
	// emits transport batches; the others replay City.Collect output.
	Columnar   bool      `json:"columnar"`
	Buses      int       `json:"buses"`
	Sensors    int       `json:"sensors"`
	From       rtec.Time `json:"from_s"`
	Span       rtec.Time `json:"span_s"`
	WM         rtec.Time `json:"wm_s"`
	Step       rtec.Time `json:"step_s"`
	Shards     int       `json:"shards"`
	Volunteers int       `json:"volunteers"`
	// KillAppend is the WAL append at which the durable workload's
	// first epoch is killed.
	KillAppend int `json:"kill_append,omitempty"`
	// MinReps is the least number of repetitions (each with its own
	// set-up) a run makes, whatever --seconds says.
	MinReps int `json:"min_reps"`
}

func (p params) until() rtec.Time { return p.From + p.Span }

// boundaries lists the query times of the span.
func (p params) boundaries() []rtec.Time {
	var qs []rtec.Time
	for q := p.From + p.Step; q <= p.until(); q += p.Step {
		qs = append(qs, q)
	}
	return qs
}

// workload is one named set of inputs and the way the benchmark drives
// them.
type workload struct {
	sizes   map[string]params
	measure func(*bench) error // untraced: end-to-end metrics
	traced  func(*bench) error // traced: per-layer metrics
}

var workloads = map[string]workload{
	"pipeline-1x":  pipelineWorkload,
	"durable-1x":   durableWorkload,
	"dashboard-1x": dashboardWorkload,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench carries one run's settings and findings.
type bench struct {
	opts    options
	p       params
	scratch string
	out     *outcome
	tr      *tracer   // traced runs only
	refMap  []float64 // dashboard: the benchmark's own flow map
}

// city builds the workload's synthetic Dublin from the seed.
func (b *bench) city() (*dublin.City, error) {
	return dublin.NewCity(dublin.Config{Seed: b.opts.seed, NumBuses: b.p.Buses, NumSensors: b.p.Sensors})
}

// trafficConfig is the self-adaptive, pessimistic rule set every
// workload recognises with.
func trafficConfig() traffic.Config {
	return traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic}
}

// productionConfig is the deployed recognition path: columnar
// transport, column store, sharded tier.
func (b *bench) productionConfig(city *dublin.City) insight.Config {
	return insight.Config{
		City:              city,
		Seed:              b.opts.seed,
		ColumnarTransport: true,
		Store:             rtec.StoreColumn,
		Shards:            b.p.Shards,
		WorkingMemory:     b.p.WM,
		Step:              b.p.Step,
		Traffic:           trafficConfig(),
	}
}

// referenceConfig is the single-engine legacy path (row store, map
// transport, one partition): the reference the production path's
// reports are checked against.
func (b *bench) referenceConfig(city *dublin.City) insight.Config {
	return insight.Config{
		City:          city,
		Seed:          b.opts.seed,
		Partitions:    1,
		WorkingMemory: b.p.WM,
		Step:          b.p.Step,
		Traffic:       trafficConfig(),
	}
}

// volunteers builds the crowdsourcing participants the way
// cmd/trafficmon does.
func volunteers(city *dublin.City, n int) []insight.SimParticipant {
	var vols []insight.SimParticipant
	inters := city.Intersections()
	for i := 0; i < n && len(inters) > 0; i++ {
		vols = append(vols, insight.SimParticipant{
			ID:        fmt.Sprintf("vol%02d", i),
			Pos:       inters[(i*7)%len(inters)].Pos,
			ErrorProb: 0.05 + 0.02*float64(i%10),
			Network:   qee.Network(i % 3),
		})
	}
	return vols
}

// enoughReps reports whether a measuring loop may stop: at least
// MinReps repetitions, and at least --seconds of measured time.
func (b *bench) enoughReps(reps int, measured time.Duration) bool {
	return reps >= b.p.MinReps && measured.Seconds() >= b.opts.seconds
}

// checkReports compares one repetition's reports, as fingerprints per
// query time, with the reference path's and with the digest recorded
// for this workload, size and seed. It returns the number of failed
// boundaries: missing or mismatching reports, or all of them when the
// recorded digest disagrees.
func (b *bench) checkReports(label string, got, reference map[rtec.Time]string) int {
	qs := b.p.boundaries()
	failed := 0
	ordered := make([]string, 0, len(qs))
	for _, q := range qs {
		fp, ok := got[q]
		ordered = append(ordered, fp)
		switch {
		case !ok:
			failed++
			b.out.problem("%s: no report for boundary %d", label, int64(q))
		case reference != nil && fp != reference[q]:
			failed++
			b.out.problem("%s: boundary %d differs from the reference path:\n  got  %s\n  want %s", label, int64(q), fp, reference[q])
		}
	}
	if len(got) != len(qs) {
		b.out.problem("%s: %d reports for %d boundaries", label, len(got), len(qs))
	}
	if want, ok := recordedDigest(b.opts.workload, b.opts.size, b.opts.seed); ok {
		if d := digest(ordered); d != want {
			b.out.problem("%s: report digest %s, recorded %s", label, d, want)
			failed = len(qs)
		}
	}
	return failed
}

// byQuery maps reports to their fingerprints.
func byQuery(reps []*insight.Report) map[rtec.Time]string {
	out := make(map[rtec.Time]string, len(reps))
	for _, r := range reps {
		out[r.Q] = r.Fingerprint()
	}
	return out
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU
// and heap allocation counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0]), val(s[1]), val(s[2])}
}

// freshHeap collects garbage and returns freed memory to the OS between
// repetitions, so one repetition's leftovers bill neither the next
// one's time nor its resident memory.
func freshHeap() { debug.FreeOSMemory() }

// resetPeakRSS restarts the process's resident-memory high-water mark,
// so the next peakRSSMB reads the peak of what ran in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// countNote renders a sample count.
func countNote(n int, what string) string { return fmt.Sprintf("median of %d %s", n, what) }

// percentileNote renders a tail figure's percentile and count, or why
// the samples support none.
func percentileNote(t tail, ok bool) string {
	if !ok {
		return fmt.Sprintf("n=%d: too few samples for this percentile (needs %d beyond it)", t.Samples, minBeyond)
	}
	return fmt.Sprintf("p%g of n=%d", t.P*100, t.Samples)
}

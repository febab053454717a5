package main

import (
	"fmt"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/rtec"
)

// repResult is what one repetition of a workload measured.
type repResult struct {
	setup time.Duration        // city, input generation, system construction, warm-up
	timed time.Duration        // the measured run
	total time.Duration        // the whole repetition
	fed   int                  // SDEs fed during the measured run
	got   map[rtec.Time]string // report fingerprint per query time

	reports []*insight.Report // for the ledger's crowd stage
	systems []*insight.System // for the ledger's rule set and the shard-tier counters

	recovery   time.Duration      // durable: the recovering build
	ckptBytes  int64              // durable: newest checkpoint file
	stepMs     []float64          // dashboard: Step per timed boundary
	mapMs      []float64          // dashboard: SparsityMap per timed boundary
	stepSelfMs []float64          // dashboard: Step minus engine evaluation
	lastMap    []float64          // dashboard: the last flow map
	latest     map[string]float64 // dashboard: the readings lastMap was conditioned on
	rounds     int                // dashboard: crowd rounds
	selectTime time.Duration      // dashboard: time inside the selection hook
}

func (r *repResult) rate() float64 { return float64(r.fed) / r.timed.Seconds() }

// measureReps is the untraced run shared by the workloads: repeat set-up
// and measured run until --seconds of measured time and MinReps
// repetitions, then check every repetition against the reference.
func (b *bench) measureReps(what string, rep func(parent int) (*repResult, error), reference func() (map[rtec.Time]string, []float64, error)) error {
	var setups, rates, recoveries, stepMs, mapMs, rss []float64
	var measured time.Duration
	var gots []map[rtec.Time]string
	var first, last *repResult
	for n := 0; !b.enoughReps(n, measured); n++ {
		freshHeap()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		r, err := rep(0)
		if err != nil {
			return err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		measured += r.timed
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, r.rate())
		recoveries = append(recoveries, r.recovery.Seconds())
		stepMs = append(stepMs, r.stepMs...)
		mapMs = append(mapMs, r.mapMs...)
		gots = append(gots, r.got)
		b.out.attempted += len(b.p.boundaries())
		b.checkRep(fmt.Sprintf("repetition %d", n+1), r)
		if first == nil {
			first = r
		}
		last = r
		r.reports, r.systems = nil, nil
	}
	if b.opts.record != "" {
		if err := b.writeRecording(first); err != nil {
			return err
		}
	}
	want, _, err := reference()
	if err != nil {
		return err
	}
	for i, got := range gots {
		b.out.failed += b.checkReports(fmt.Sprintf("repetition %d", i+1), got, want)
	}
	b.out.add("setup_s", "s", median(setups), countNote(len(setups), "set-ups"))
	b.out.add("sde_per_s", "1/s", median(rates), countNote(len(rates), what)+fmt.Sprintf(", %d SDEs each", last.fed))
	b.out.add("peak_rss_mb", "MB", median(rss), countNote(len(rss), "repetitions"))
	if last.recovery > 0 {
		b.out.add("recovery_s", "s", median(recoveries), countNote(len(recoveries), "recoveries"))
	}
	if len(stepMs) > 0 {
		for _, m := range []struct {
			name string
			xs   []float64
		}{{"report_ms", stepMs}, {"map_ms", mapMs}} {
			p50, ok50 := highestPercentile(m.xs, 0.5)
			b.out.add(m.name+"_p50", "ms", p50.Value, percentileNote(p50, ok50))
			p90, ok90 := highestPercentile(m.xs, 0.9)
			b.out.add(m.name+"_p90", "ms", p90.Value, percentileNote(p90, ok90))
		}
	}
	perRep := map[string][]float64{"setup_s": setups, "sde_per_s": rates, "peak_rss_mb": rss}
	if last.recovery > 0 {
		perRep["recovery_s"] = recoveries
	}
	b.out.stamp["per_repetition"] = perRep
	b.out.stamp["repetitions"] = len(gots)
	b.out.stamp["measured_s"] = measured.Seconds()
	return nil
}

// checkRep runs a workload's own per-repetition checks; only the
// dashboard has any (its flow map).
func (b *bench) checkRep(label string, r *repResult) {
	if r.lastMap != nil {
		b.checkFlowMap(label, r)
	}
}

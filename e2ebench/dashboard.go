package main

import (
	"context"
	"fmt"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// dashboardWorkload mirrors cmd/trafficmon -http on trafficmon's own
// city: pre-generated SDEs are replayed through the synchronous Step
// loop and every boundary refreshes the GP flow map. Reads run beside
// writes: a sliding window with incremental reuse, the crowd loop, the
// map refresh and the facade's per-step inbox sort. It bypasses
// streams, the WAL and the shard tier.
var dashboardWorkload = workload{
	sizes: map[string]params{
		"full":  {Buses: 235, Sensors: 240, From: 6 * 3600, Span: 120 * 300, WM: 1200, Step: 300, Volunteers: 20, MinReps: 3},
		"smoke": {Buses: 24, Sensors: 24, From: 6 * 3600, Span: 4 * 300, WM: 1200, Step: 300, Volunteers: 20, MinReps: 1},
	},
	measure: func(b *bench) error { return b.measureReps("dashboard epochs", b.dashboardRep, b.dashboardReference) },
	traced:  func(b *bench) error { return b.traceReps(b.dashboardRep, b.dashboardReference) },
}

// dashboardConfig sets only the Config fields cmd/trafficmon sets. A
// non-nil sel replaces the default crowd selection (nearest five).
func (b *bench) dashboardConfig(city *dublin.City, sel crowd.Selection) insight.Config {
	return insight.Config{
		City:           city,
		Seed:           b.opts.seed,
		WorkingMemory:  b.p.WM,
		Step:           b.p.Step,
		Participants:   volunteers(city, b.p.Volunteers),
		Traffic:        trafficConfig(),
		CrowdSelection: sel,
	}
}

// dashboardRep is one dashboard epoch. Set-up generates the span's SDEs
// with City.Collect, builds the system, primes the replay and serves
// the first boundary, whose map call builds the GP kernel cache. Each
// later boundary is timed: Step(q), then SparsityMap(2, 1, 2500).
func (b *bench) dashboardRep(parent int) (*repResult, error) {
	tr := b.tr
	ctx := context.Background()
	r := &repResult{got: make(map[rtec.Time]string)}
	var sel crowd.Selection
	if tr != nil {
		nearest := crowd.SelectNearest(5, 0)
		sel = func(cands []crowd.Participant, pos geo.Point) []crowd.Participant {
			t0 := time.Now()
			out := nearest(cands, pos)
			r.selectTime += time.Since(t0)
			return out
		}
	}

	start := time.Now()
	sp := tr.begin("setup", parent, -1)
	c := tr.begin("dublin.NewCity", sp, -1)
	city, err := b.city()
	tr.end(c)
	if err != nil {
		return nil, err
	}
	c = tr.begin("dublin.City.Collect", sp, -1)
	sdes := city.Collect(b.p.From, b.p.until())
	tr.end(c)
	c = tr.begin("insight.New", sp, -1)
	sys, err := insight.New(b.dashboardConfig(city, sel))
	tr.end(c)
	if err != nil {
		return nil, err
	}
	r.systems = []*insight.System{sys}
	c = tr.begin("insight.StartReplay", sp, -1)
	sys.StartReplay(sdes)
	tr.end(c)
	qs := b.p.boundaries()
	serve := func(parent int, q rtec.Time) (*insight.Report, time.Duration, time.Duration, error) {
		t0 := time.Now()
		c := tr.begin("insight.Step", parent, int64(q))
		rep, err := sys.Step(ctx, q)
		tr.end(c)
		t1 := time.Now()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("step %d: %w", int64(q), err)
		}
		c = tr.begin("insight.SparsityMap", parent, int64(q))
		fm, err := sys.SparsityMap(2, 1, 2500)
		tr.end(c)
		t2 := time.Now()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("sparsity map %d: %w", int64(q), err)
		}
		r.got[q] = rep.Fingerprint()
		r.rounds += len(rep.CrowdRounds)
		r.lastMap = fm.Values
		return rep, t1.Sub(t0), t2.Sub(t1), nil
	}
	if _, _, _, err := serve(sp, qs[0]); err != nil {
		return nil, err
	}
	tr.end(sp)
	r.setup = time.Since(start)

	for _, q := range qs[1:] {
		rep, step, mp, err := serve(parent, q)
		if err != nil {
			return nil, err
		}
		r.timed += step + mp
		r.fed += rep.FedEvents
		r.stepMs = append(r.stepMs, float64(step)/float64(time.Millisecond))
		r.mapMs = append(r.mapMs, float64(mp)/float64(time.Millisecond))
		r.stepSelfMs = append(r.stepSelfMs, float64(step-rep.Stats.Elapsed)/float64(time.Millisecond))
		if tr != nil {
			r.reports = append(r.reports, rep)
		}
	}
	r.total = time.Since(start)

	// The readings the last map was conditioned on: the latest flow per
	// sensor fed by the last boundary, in feed (arrival) order.
	r.latest = make(map[string]float64)
	last := qs[len(qs)-1]
	for _, s := range sdes {
		if s.Arrival <= last && s.Event.Type == traffic.TrafficType {
			if flow, ok := s.Event.Float("flow"); ok {
				r.latest[s.Event.Key] = flow
			}
		}
	}
	return r, nil
}

// dashboardReference runs the same span through the Streams pipeline
// with the same configuration — crowd loop included — and returns its
// report fingerprints per query time.
func (b *bench) dashboardReference() (map[rtec.Time]string, []float64, error) {
	city, err := b.city()
	if err != nil {
		return nil, nil, err
	}
	sys, err := insight.New(b.dashboardConfig(city, nil))
	if err != nil {
		return nil, nil, err
	}
	pipe, err := sys.BuildPipeline(b.p.From, b.p.until())
	if err != nil {
		return nil, nil, err
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		return nil, nil, fmt.Errorf("reference pipeline: %w", err)
	}
	return byQuery(reports), nil, nil
}

// checkFlowMap compares the epoch's last flow map with the values
// recorded for this seed, or, without a recording, with a map the
// benchmark conditions itself on the same readings; both within 1e-9
// relative, since the linear-algebra kernels may reorder float
// operations.
func (b *bench) checkFlowMap(label string, r *repResult) {
	want, ok := recordedFlows(b.opts.workload, b.opts.size, b.opts.seed)
	if !ok {
		if b.refMap == nil {
			city, err := b.city()
			if err == nil {
				b.refMap, err = flowMap(nil, 0, city, r.latest)
			}
			if err != nil {
				b.out.problem("%s: reference flow map: %v", label, err)
				return
			}
		}
		want = b.refMap
	}
	if err := compareValues(r.lastMap, want, 1e-9); err != nil {
		b.out.problem("%s: last flow map: %v", label, err)
		b.out.failed++
	}
}

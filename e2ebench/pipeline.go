package main

import (
	"context"
	"fmt"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/rtec"
)

// pipelineWorkload replays the paper-scale city through the Streams
// data-flow graph on the production configuration. Few boundaries with
// large batches make it the transport, store-ingest and shard-tier
// workload; it bypasses the WAL, the crowd and the GP.
var pipelineWorkload = workload{
	sizes: map[string]params{
		"full":  {Columnar: true, From: 6 * 3600, Span: 3 * 3600, WM: 1800, Step: 900, Shards: 2, MinReps: 3},
		"smoke": {Columnar: true, Buses: 24, Sensors: 24, From: 6 * 3600, Span: 1800, WM: 1800, Step: 900, Shards: 2, MinReps: 1},
	},
	measure: func(b *bench) error { return b.measureReps("pipeline runs", b.pipelineRep, b.directReference) },
	traced:  func(b *bench) error { return b.traceReps(b.pipelineRep, b.directReference) },
}

// pipelineRep builds the production system, builds its pipeline over
// the span (set-up, which includes input generation) and times
// Pipeline.Run.
func (b *bench) pipelineRep(parent int) (*repResult, error) {
	tr := b.tr
	start := time.Now()
	sp := tr.begin("setup", parent, -1)
	c := tr.begin("dublin.NewCity", sp, -1)
	city, err := b.city()
	tr.end(c)
	if err != nil {
		return nil, err
	}
	c = tr.begin("insight.New", sp, -1)
	sys, err := insight.New(b.productionConfig(city))
	tr.end(c)
	if err != nil {
		return nil, err
	}
	c = tr.begin("insight.BuildPipeline", sp, -1)
	pipe, err := sys.BuildPipeline(b.p.From, b.p.until())
	tr.end(c)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	t0 := time.Now()
	c = tr.begin("insight.Pipeline.Run", parent, -1)
	reports, err := pipe.Run(context.Background())
	tr.end(c)
	timed := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("pipeline run: %w", err)
	}
	r := &repResult{setup: setup, timed: timed, total: time.Since(start), got: byQuery(reports),
		reports: reports, systems: []*insight.System{sys}}
	for _, rep := range reports {
		r.fed += rep.FedEvents
	}
	return r, nil
}

// directReference runs the span through the single-engine legacy path
// with the synchronous Step loop — no streams, no column store, no
// shards — and returns its report fingerprints per query time, and
// per boundary the Step wall time minus the engine's evaluation time.
func (b *bench) directReference() (map[rtec.Time]string, []float64, error) {
	city, err := b.city()
	if err != nil {
		return nil, nil, err
	}
	sys, err := insight.New(b.referenceConfig(city))
	if err != nil {
		return nil, nil, err
	}
	sys.Start(b.p.From, b.p.until())
	want := make(map[rtec.Time]string)
	var self []float64
	for _, q := range b.p.boundaries() {
		t0 := time.Now()
		rep, err := sys.Step(context.Background(), q)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("reference step %d: %w", int64(q), err)
		}
		want[q] = rep.Fingerprint()
		self = append(self, float64(d-rep.Stats.Elapsed)/float64(time.Millisecond))
	}
	return want, self, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams/wal"
)

// durableWorkload runs the production configuration through the
// durable pipeline under SyncAlways, kills it once mid-span at a fixed
// WAL append, recovers on the surviving directory and resumes to the
// end. Most of its time goes to WAL append, checkpoint encode/GC and
// restore, which no other workload touches.
var durableWorkload = workload{
	sizes: map[string]params{
		"full":  {Columnar: true, From: 6 * 3600, Span: 3600, WM: 1800, Step: 900, Shards: 2, KillAppend: 150, MinReps: 3},
		"smoke": {Columnar: true, Buses: 24, Sensors: 24, From: 6 * 3600, Span: 1800, WM: 1800, Step: 900, Shards: 2, KillAppend: 8, MinReps: 1},
	},
	measure: func(b *bench) error { return b.measureReps("crash-recover runs", b.durableRep, b.pipelineReference) },
	traced:  func(b *bench) error { return b.traceReps(b.durableRep, b.durableReference) },
}

// durableRep is one kill → recover → resume cycle in a fresh directory.
// Set-up is the first BuildDurablePipeline (with input generation);
// the measured run is both epochs' Pipeline.Run; the recovering
// BuildDurablePipeline is timed on its own.
func (b *bench) durableRep(parent int) (*repResult, error) {
	tr := b.tr
	dir, err := os.MkdirTemp(b.scratch, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	appends := 0
	kill := func(start int64, frameLen int) (int, bool) {
		appends++
		if appends == b.p.KillAppend {
			return frameLen / 2, true
		}
		return 0, false
	}
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
	c = tr.begin("insight.BuildDurablePipeline", sp, -1)
	pipe, info, err := sys.BuildDurablePipeline(b.p.From, b.p.until(), insight.DurableOptions{
		Dir: dir, Sync: wal.SyncAlways, WALFailpoint: kill,
	})
	tr.end(c)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if info.Resumed {
		return nil, fmt.Errorf("durable directory %s was not fresh", dir)
	}
	setup := time.Since(start)

	t0 := time.Now()
	c = tr.begin("insight.Pipeline.Run", parent, -1)
	_, runErr := pipe.Run(context.Background())
	tr.end(c)
	epoch1 := time.Since(t0)
	if !errors.Is(runErr, wal.ErrCrashPoint) {
		return nil, fmt.Errorf("first epoch was not killed at append %d (%d appends): %v", b.p.KillAppend, appends, runErr)
	}
	union := make(map[rtec.Time]*insight.Report)
	for _, it := range pipe.Reports.Items() {
		if rep, ok := it["report"].(*insight.Report); ok {
			union[rep.Q] = rep
		}
	}

	c = tr.begin("insight.New", parent, -1)
	sys2, err := insight.New(b.productionConfig(city))
	tr.end(c)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	c = tr.begin("insight.BuildDurablePipeline", parent, -1)
	pipe2, _, err := sys2.BuildDurablePipeline(b.p.From, b.p.until(), insight.DurableOptions{Dir: dir, Sync: wal.SyncAlways})
	tr.end(c)
	recovery := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	t2 := time.Now()
	c = tr.begin("insight.Pipeline.Run", parent, -1)
	resumed, err := pipe2.Run(context.Background())
	tr.end(c)
	epoch2 := time.Since(t2)
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	for _, rep := range resumed {
		union[rep.Q] = rep // the newest report per query time wins
	}
	ckpt, err := newestCheckpoint(dir)
	if err != nil {
		return nil, err
	}

	r := &repResult{setup: setup, timed: epoch1 + epoch2, total: time.Since(start), recovery: recovery,
		ckptBytes: ckpt, got: make(map[rtec.Time]string), systems: []*insight.System{sys, sys2}}
	for q, rep := range union {
		r.got[q] = rep.Fingerprint()
		r.fed += rep.FedEvents
		r.reports = append(r.reports, rep)
	}
	return r, nil
}

// newestCheckpoint is the size of the most recent checkpoint file in
// dir; checkpoint names sort by their boundary.
func newestCheckpoint(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var newest os.DirEntry
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".ck") {
			if newest == nil || e.Name() > newest.Name() {
				newest = e
			}
		}
	}
	if newest == nil {
		return 0, fmt.Errorf("no checkpoint in %s", dir)
	}
	fi, err := os.Stat(filepath.Join(dir, newest.Name()))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// pipelineReference runs the same span uninterrupted through the plain
// pipeline (no WAL, no kill) on the production configuration: the
// output a crashed-and-recovered run must reproduce.
func (b *bench) pipelineReference() (map[rtec.Time]string, []float64, error) {
	city, err := b.city()
	if err != nil {
		return nil, nil, err
	}
	sys, err := insight.New(b.productionConfig(city))
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

// durableReference is pipelineReference, plus the direct Step loop for
// the facade's own per-step cost, which the durable path never calls.
func (b *bench) durableReference() (map[rtec.Time]string, []float64, error) {
	want, _, err := b.pipelineReference()
	if err != nil {
		return nil, nil, err
	}
	direct, stepSelf, err := b.directReference()
	if err != nil {
		return nil, nil, err
	}
	for q, fp := range direct {
		if want[q] != fp {
			b.out.problem("boundary %d: the plain pipeline and the direct loop disagree", int64(q))
		}
	}
	return want, stepSelf, nil
}

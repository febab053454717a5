package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
	"github.com/insight-dublin/insight/traffic"
)

// The traced run. It repeats the workload three times — a warm-up, a
// traced repetition with a span around every call the benchmark makes
// into the system, and an untraced one measured with the runtime's
// counters — then drives the workload's inputs through each layer's
// public entry point in pipeline order, one layer at a time, under
// spans carrying the boundary they serve. Per-layer figures are span
// self times.

// serialLayers are the ledger's single-threaded stages; their summed
// self time is the single-threaded baseline of the run.
var serialLayers = []string{
	"dublin.generate", "wal.append", "rtec.ingest", "rtec.query",
	"rtec.snapshot", "crowd.select", "gp.kernel", "gp.fit", "gp.predict",
}

// traceReps is the traced run shared by the workloads.
func (b *bench) traceReps(rep func(parent int) (*repResult, error), reference func() (map[rtec.Time]string, []float64, error)) error {
	tr := newTracer()
	b.tr = nil
	freshHeap()
	if _, err := rep(0); err != nil {
		return err
	}

	b.tr = tr
	freshHeap()
	root := tr.begin("facade", 0, -1)
	traced, err := rep(root)
	tr.end(root)
	if err != nil {
		return err
	}

	b.tr = nil
	freshHeap()
	rt0 := readRuntime()
	untraced, err := rep(0)
	rt1 := readRuntime()
	b.tr = tr
	if err != nil {
		return err
	}

	want, stepSelf, err := reference()
	if err != nil {
		return err
	}
	for i, r := range []*repResult{traced, untraced} {
		label := [...]string{"traced repetition", "untraced repetition"}[i]
		b.out.attempted += len(b.p.boundaries())
		b.out.failed += b.checkReports(label, r.got, want)
		b.checkRep(label, r)
	}

	lr, err := b.ledger(traced)
	if err != nil {
		return err
	}

	o := b.out
	self := selfByName(tr.spans)
	sec := func(name string) float64 { return self[name].Seconds() }
	o.add("dublin.generate_s", "s", sec("dublin.generate"), fmt.Sprintf("%d SDEs", lr.sdes))
	o.add("dublin.us_per_sde", "us", sec("dublin.generate")*1e6/float64(lr.sdes), "")
	o.add("streams.transport_s", "s", sec("streams.transport"), fmt.Sprintf("%d envelopes", lr.envelopes))
	o.add("wal.append_s", "s", sec("wal.append"), fmt.Sprintf("%d appends", lr.envelopes))
	o.add("wal.bytes_per_sde", "B", float64(lr.walBytes)/float64(lr.sdes), "")
	o.add("checkpoint.bytes", "B", float64(traced.ckptBytes), "")
	o.add("rtec.snapshot_s", "s", sec("rtec.snapshot"), "")
	o.add("rtec.ingest_s", "s", sec("rtec.ingest"), "")
	o.add("rtec.query_s", "s", sec("rtec.query"), "")
	q := durations(tr.spans, "rtec.query")
	o.add("rtec.query_ms_p50", "ms", median(q), countNote(len(q), "queries"))
	for _, r := range ruleNames {
		o.add("rtec.rule."+r+"_s", "s", lr.ruleCosts[r].Seconds(), "")
	}
	o.add("rtec.alloc_bytes_per_sde", "B", float64(lr.allocBytes)/float64(lr.sdes), "")
	o.add("rtec.resident_bytes_per_sde", "B", lr.residentPerSDE, "")

	critical, rebalances := time.Duration(0), 0
	for _, s := range traced.systems {
		critical += s.ShardCriticalPath()
		rebalances += s.ShardRebalances()
	}
	if critical == 0 {
		// The facade system runs no shard tier: read the tier's counters
		// from a sharded replay of the workload's input.
		critical, rebalances = lr.shardCritical, lr.shardRebalances
	}
	o.add("shard.critical_path_s", "s", critical.Seconds(), "")
	o.add("shard.rebalances", "count", float64(rebalances), "")

	if traced.stepSelfMs != nil {
		stepSelf = traced.stepSelfMs
	}
	o.add("insight.step_self_ms_p50", "ms", median(stepSelf), countNote(len(stepSelf), "steps"))
	if traced.selectTime > 0 || traced.rounds > 0 {
		o.add("crowd.rounds", "count", float64(traced.rounds), "from the facade's own crowd loop")
		o.add("crowd.select_s", "s", traced.selectTime.Seconds(), "inside the Config.CrowdSelection hook")
	} else {
		o.add("crowd.rounds", "count", float64(lr.rounds), "selections driven by the ledger")
		o.add("crowd.select_s", "s", sec("crowd.select"), "")
	}
	o.add("gp.kernel_s", "s", sec("gp.kernel"), "")
	o.add("gp.fit_s", "s", sec("gp.fit"), fmt.Sprintf("%d observations", lr.observations))
	o.add("gp.predict_s", "s", sec("gp.predict"), "")

	cpu := rt1.totalCPU - rt0.totalCPU
	share := 0.0
	if cpu > 0 {
		share = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	o.add("runtime.gc_cpu_share", "ratio", share, "untraced repetition")
	o.add("runtime.alloc_bytes_per_sde", "B", (rt1.allocBytes-rt0.allocBytes)/float64(untraced.fed), "untraced repetition")
	o.add("trace.overhead", "ratio", traced.total.Seconds()/untraced.total.Seconds()-1, "traced ÷ untraced repetition wall time − 1")
	var serial time.Duration
	for _, l := range serialLayers {
		serial += self[l]
	}
	o.add("ledger.serial_over_wall", "ratio", serial.Seconds()/untraced.total.Seconds(), "single-threaded layer self time ÷ untraced wall time")
	o.stamp["untraced_wall_s"] = untraced.total.Seconds()
	o.stamp["spans"] = len(tr.spans)
	return nil
}

// ledgerResult holds the ledger's counts; times come from its spans.
type ledgerResult struct {
	sdes, envelopes int
	walBytes        int64
	ruleCosts       map[string]time.Duration
	allocBytes      uint64
	residentPerSDE  float64
	rounds          int
	observations    int
	shardCritical   time.Duration
	shardRebalances int
}

// ledger drives the workload's inputs through each layer in pipeline
// order: generation, transport, WAL, recognition engine, crowd
// selection, traffic model.
func (b *bench) ledger(facade *repResult) (*ledgerResult, error) {
	tr := b.tr
	root := tr.begin("ledger", 0, -1)
	defer tr.end(root)
	city, err := b.city()
	if err != nil {
		return nil, err
	}
	// The facade's system supplies the compiled rule set and the
	// intersection registry.
	sys := facade.systems[0]
	lr := &ledgerResult{ruleCosts: make(map[string]time.Duration)}

	// dublin: the generator path the workload uses.
	var batched []dublin.BatchedStream
	var sdes []dublin.SDE
	sp := tr.begin("dublin.generate", root, -1)
	if b.p.Columnar {
		batched = city.CollectBatches(b.p.From, b.p.until(), 512, b.p.Step/2)
	} else {
		sdes = city.Collect(b.p.From, b.p.until())
	}
	tr.end(sp)
	if batched == nil {
		// The transport and WAL stages need envelopes too.
		batched = city.CollectBatches(b.p.From, b.p.until(), 512, b.p.Step/2)
	}
	envelopes := mergeByArrival(batched)
	lr.envelopes = len(envelopes)
	for _, e := range envelopes {
		lr.sdes += e.Len()
	}

	sp = tr.begin("streams.transport", root, -1)
	err = transport(batched, b.p)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}

	if lr.walBytes, err = b.walStage(root, envelopes); err != nil {
		return nil, err
	}

	latest, err := b.rtecStage(root, sys.Definitions(), batched, sdes, lr)
	if err != nil {
		return nil, err
	}

	b.crowdStage(root, city, sys.Registry(), facade.reports, lr)

	lr.observations = len(latest)
	if _, err := flowMap(tr, root, city, latest); err != nil {
		return nil, err
	}

	if b.p.Shards == 0 {
		if err := b.shardStage(city, sdes, lr); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// mergeByArrival orders the five streams' envelopes by first arrival,
// the order a single consumer receives them in.
func mergeByArrival(batched []dublin.BatchedStream) []*streams.Batch {
	var all []*streams.Batch
	for _, bs := range batched {
		all = append(all, bs.Batches...)
	}
	first := func(b *streams.Batch) int64 {
		if b.Len() == 0 {
			return 0
		}
		return b.Arrivals[0]
	}
	sort.SliceStable(all, func(i, j int) bool { return first(all[i]) < first(all[j]) })
	return all
}

// transport runs the envelopes through a topology shaped like the
// pipeline's: five paced slice sources, a pass-through process each,
// one 4096-slot queue, one consumer, a discarding sink.
func transport(batched []dublin.BatchedStream, p params) error {
	top := streams.NewTopology()
	pacer := streams.NewPacer(int64(p.Step) / 2)
	arrivalOf := func(it streams.Item) (int64, bool) {
		b, ok := streams.ItemBatch(it)
		if !ok || b.Len() == 0 || b.Arrivals == nil {
			return 0, false
		}
		return b.Arrivals[0], true
	}
	pass := passThrough{}
	if _, err := top.AddQueue("sdes", 4096); err != nil {
		return err
	}
	if err := top.AddSink("operator", streams.DiscardSink{}); err != nil {
		return err
	}
	for _, bs := range batched {
		items := make([]streams.Item, len(bs.Batches))
		for i, b := range bs.Batches {
			items[i] = streams.BatchItem(b)
		}
		src := streams.NewPacedSource(streams.NewSliceSource(items...), pacer, bs.ID, int64(p.From), arrivalOf)
		if err := top.AddStream(bs.ID, src); err != nil {
			return err
		}
		if err := top.AddProcess("input-"+bs.ID, bs.ID, "sdes", pass); err != nil {
			return err
		}
	}
	if err := top.AddProcess("monitoring", "sdes", "operator", pass); err != nil {
		return err
	}
	return top.Run(context.Background())
}

// passThrough forwards items and whole batch envelopes unchanged, like
// the pipeline's batch-aware validators.
type passThrough struct{}

func (passThrough) Process(it streams.Item) (streams.Item, error) { return it, nil }

func (passThrough) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	return []streams.Item{streams.BatchItem(b)}, nil
}

// boundaryOf is the query boundary an arrival time is admitted at.
func (p params) boundaryOf(arrival int64) int64 {
	step := int64(p.Step)
	from := int64(p.From)
	if arrival <= from {
		return from
	}
	return from + (arrival-from+step-1)/step*step
}

// walStage encodes and appends every envelope to a fresh log under
// SyncAlways and returns the log's size.
func (b *bench) walStage(root int, envelopes []*streams.Batch) (int64, error) {
	tr := b.tr
	dir := filepath.Join(b.scratch, "ledger-wal")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	stage := tr.begin("wal", root, -1)
	var buf []byte
	for _, env := range envelopes {
		bnd := int64(-1)
		if env.Len() > 0 {
			bnd = b.p.boundaryOf(env.Arrivals[0])
		}
		sp := tr.begin("wal.append", stage, bnd)
		buf = wal.EncodeBatch(buf[:0], env)
		_, _, err := log.Append(buf)
		tr.end(sp)
		if err != nil {
			tr.end(stage)
			return 0, errors.Join(fmt.Errorf("wal append: %w", err), log.Close())
		}
	}
	tr.end(stage)
	size := log.Frontier()
	if err := log.Close(); err != nil {
		return 0, err
	}
	return size, os.RemoveAll(dir)
}

// rtecStage feeds a bench-owned engine of the workload's store kind
// and windowing, profiled and with one rule worker, the workload's SDEs
// in arrival order up to each boundary, queries it and snapshots it.
// It returns the latest flow reading per sensor admitted by the last
// boundary, for the traffic-model stage.
func (b *bench) rtecStage(root int, defs *rtec.Definitions, batched []dublin.BatchedStream, sdes []dublin.SDE, lr *ledgerResult) (map[string]float64, error) {
	tr := b.tr
	store := rtec.StoreColumn
	if sdes != nil {
		store = rtec.StoreRow
	}
	eng, err := rtec.NewEngine(defs, rtec.Options{
		WorkingMemory: b.p.WM, Step: b.p.Step, Store: store, Profile: true, RuleWorkers: 1,
	})
	if err != nil {
		return nil, err
	}
	latest := make(map[string]float64)
	note := func(ev rtec.Event) {
		if ev.Type == traffic.TrafficType {
			if flow, ok := ev.Float("flow"); ok {
				latest[ev.Key] = flow
			}
		}
	}
	// Per-stream cursors over the columnar envelopes.
	type cursor struct {
		batches []*streams.Batch
		blocks  []*rtec.Block
		bi, ri  int
	}
	var curs []*cursor
	if sdes == nil {
		for _, bs := range batched {
			c := &cursor{batches: bs.Batches}
			for _, bt := range bs.Batches {
				c.blocks = append(c.blocks, dublin.Block(bt))
			}
			curs = append(curs, c)
		}
	}
	next := 0
	var rows []int32
	var last rtec.Stats
	stage := tr.begin("rtec", root, -1)
	defer tr.end(stage)
	for _, q := range b.p.boundaries() {
		sp := tr.begin("rtec.ingest", stage, int64(q))
		if sdes != nil {
			end := next
			for end < len(sdes) && sdes[end].Arrival <= q {
				end++
			}
			evs := make([]rtec.Event, 0, end-next)
			for _, s := range sdes[next:end] {
				evs = append(evs, s.Event)
			}
			err = eng.Input(evs...)
			next = end
		}
		for _, c := range curs {
			for err == nil && c.bi < len(c.batches) {
				bt := c.batches[c.bi]
				rows = rows[:0]
				for c.ri < bt.Len() && bt.Arrivals[c.ri] <= int64(q) {
					rows = append(rows, int32(c.ri))
					c.ri++
				}
				if len(rows) > 0 {
					err = eng.InputBlockRows(c.blocks[c.bi], rows)
				}
				if c.ri < bt.Len() {
					break
				}
				c.bi, c.ri = c.bi+1, 0
			}
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("engine input: %w", err)
		}
		sp = tr.begin("rtec.query", stage, int64(q))
		res, err := eng.Query(q)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("engine query %d: %w", int64(q), err)
		}
		for name, d := range res.RuleCosts {
			lr.ruleCosts[name] += d
		}
		lr.allocBytes += res.Stats.AllocBytes
		last = res.Stats
		sp = tr.begin("rtec.snapshot", stage, int64(q))
		_, err = eng.Snapshot()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("engine snapshot: %w", err)
		}
	}
	if last.InputEvents > 0 {
		lr.residentPerSDE = float64(last.ResidentBytes) / float64(last.InputEvents)
	}
	// The traffic model reads the latest reading per sensor admitted by
	// the last boundary, in admission order.
	lastQ := b.p.until()
	if sdes != nil {
		for _, s := range sdes {
			if s.Arrival <= lastQ {
				note(s.Event)
			}
		}
		return latest, nil
	}
	for _, bs := range batched {
		for _, bt := range bs.Batches {
			blk := dublin.Block(bt)
			if blk.Type != traffic.TrafficType {
				continue
			}
			for i := 0; i < bt.Len(); i++ {
				if bt.Arrivals[i] <= int64(lastQ) {
					note(blk.Event(i))
				}
			}
		}
	}
	return latest, nil
}

// crowdStage asks the crowd layer to select participants for every
// fresh disagreement the facade's reports carry, the way the facade's
// crowd loop does, against volunteers built as cmd/trafficmon builds
// them.
func (b *bench) crowdStage(root int, city *dublin.City, reg *traffic.Registry, reports []*insight.Report, lr *ledgerResult) {
	tr := b.tr
	var roster []crowd.Participant
	for _, v := range volunteers(city, 20) {
		roster = append(roster, crowd.Participant{ID: v.ID, Pos: v.Pos, Online: true})
	}
	sel := crowd.SelectNearest(5, 0)
	stage := tr.begin("crowd", root, -1)
	defer tr.end(stage)
	for _, rep := range reports {
		if rep.Result == nil {
			continue
		}
		seen := make(map[string]bool)
		for _, ev := range rep.Result.Fresh {
			if ev.Type != traffic.Disagree || seen[ev.Key] || rep.Q-ev.Time > b.p.Step {
				continue
			}
			seen[ev.Key] = true
			inter, ok := reg.Lookup(ev.Key)
			if !ok {
				continue
			}
			sp := tr.begin("crowd.select", stage, int64(rep.Q))
			sel(roster, inter.Pos)
			tr.end(sp)
			lr.rounds++
		}
	}
}

// flowMap conditions the regularized-Laplacian GP (α=2, β=1, σ²=2500,
// the dashboard's map) on the latest reading per sensor, in sorted
// sensor order, and predicts the flow at every junction.
func flowMap(tr *tracer, parent int, city *dublin.City, latest map[string]float64) ([]float64, error) {
	vertex := make(map[string]int, len(city.Sensors()))
	for _, s := range city.Sensors() {
		vertex[s.ID] = s.Vertex
	}
	keys := make([]string, 0, len(latest))
	for k := range latest {
		if _, ok := vertex[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	obs := make([]gp.Observation, 0, len(keys))
	for _, k := range keys {
		obs = append(obs, gp.Observation{Vertex: vertex[k], Value: latest[k]})
	}
	stage := tr.begin("gp", parent, -1)
	defer tr.end(stage)
	sp := tr.begin("gp.kernel", stage, -1)
	kernel, err := gp.RegularizedLaplacian(city.Graph(), 2, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("gp.fit", stage, -1)
	reg, err := gp.Fit(kernel, obs, 2500)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("gp.predict", stage, -1)
	values, err := reg.PredictAll()
	tr.end(sp)
	return values, err
}

// shardStage replays the workload's SDEs through a two-shard,
// column-store system with the Step loop, for a workload whose own
// system runs no shard tier, and reads the tier's counters.
func (b *bench) shardStage(city *dublin.City, sdes []dublin.SDE, lr *ledgerResult) error {
	cfg := b.productionConfig(city)
	cfg.Shards = 2
	cfg.ColumnarTransport = false
	sys, err := insight.New(cfg)
	if err != nil {
		return err
	}
	if err := sys.RunReplay(context.Background(), sdes, b.p.From, b.p.until(), nil); err != nil {
		return fmt.Errorf("sharded replay: %w", err)
	}
	lr.shardCritical = sys.ShardCriticalPath()
	lr.shardRebalances = sys.ShardRebalances()
	return nil
}

package insight

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// ceFingerprint renders every recognition-derived field of a report as
// one canonical string: if two runs produce the same fingerprints they
// recognised the same complex events. Transport-timing fields
// (WatermarkLag, DegradedStreams) are deliberately excluded — they
// describe when boundaries fired, not what was recognised, and depend
// on goroutine interleaving.
func ceFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%d window=[%d,%d) fed=%d input=%d\n",
		rep.Q, rep.Window.Start, rep.Window.End, rep.FedEvents, rep.Stats.InputEvents)
	fmt.Fprintf(&b, "congested=%s\n", join(rep.CongestedIntersections))
	fmt.Fprintf(&b, "busAreas=%s\n", join(rep.BusCongestionAreas))
	fmt.Fprintf(&b, "disagree=%s\n", join(rep.Disagreements))
	fmt.Fprintf(&b, "warnings=%s\n", join(rep.CongestionWarnings))
	fmt.Fprintf(&b, "unusual=%s\n", join(rep.UnusualCongestion))
	fmt.Fprintf(&b, "noisy=%s\n", join(rep.NoisyBuses))
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "alert %s|%s|%d|%s\n", a.Kind, a.Key, a.Time, a.Text)
	}
	for _, c := range rep.CrowdRounds {
		fmt.Fprintf(&b, "crowd %s|%d|%s\n", c.Intersection, c.Queried, c.Verdict.Best)
	}
	if rep.Result != nil {
		types := make([]string, 0, len(rep.Result.Derived))
		for typ := range rep.Result.Derived {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, ev := range rep.Result.Derived[typ] {
				fmt.Fprintf(&b, "derived %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
			}
		}
		for _, ev := range rep.Result.Fresh {
			fmt.Fprintf(&b, "fresh %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
		}
	}
	return b.String()
}

func compareReports(t *testing.T, label string, got, want []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range got {
		gf, wf := ceFingerprint(got[i]), ceFingerprint(want[i])
		if gf != wf {
			t.Errorf("%s: report %d differs:\n--- got ---\n%s--- want ---\n%s", label, i, gf, wf)
		}
	}
}

// survivingSDEs replays the city's batch envelopes for [from, until)
// through the same per-stream injectors BuildChaosPipeline installs
// and returns the rows they let through, with the injectors' fault
// counts.
func survivingSDEs(t *testing.T, city *dublin.City, from, until, step Time, specs map[string]streams.FaultSpec) ([]dublin.SDE, int, int) {
	t.Helper()
	var sdes []dublin.SDE
	dropped, duplicated := 0, 0
	for _, bs := range city.CollectBatches(from, until, 512, step/2) {
		items := make([]streams.Item, 0, len(bs.Batches))
		for _, b := range bs.Batches {
			items = append(items, streams.BatchItem(b))
		}
		cs := streams.NewChaosSource(streams.NewSliceSource(items...), specs[bs.ID].ForStream(bs.ID))
		for {
			it, ok := cs.Read()
			if !ok {
				break
			}
			b, isBatch := streams.ItemBatch(it)
			if !isBatch {
				t.Fatalf("stream %s: injector emitted a non-batch item", bs.ID)
			}
			for i := 0; i < b.Len(); i++ {
				sdes = append(sdes, dublin.SDE{Event: rowEvent(b, i), Arrival: Time(b.Arrivals[i])})
			}
			b.Release()
		}
		st := cs.Stats()
		dropped += st.Dropped
		duplicated += st.Duplicated
	}
	return sdes, dropped, duplicated
}

// TestChaosDropDupMatchesReplay runs the full chaos pipeline with
// row-level drops and duplicates on every input stream and checks it
// against the direct replay loop (System.RunReplay) over exactly the
// rows the same seeded injectors let through: the pipeline's watermark
// admission must deliver what an arrival-ordered replay of the faulted
// streams delivers, boundary by boundary.
func TestChaosDropDupMatchesReplay(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	const step = Time(900)
	city := testCity(t)

	specs := make(map[string]streams.FaultSpec, len(pipelineStreamIDs))
	for i, id := range pipelineStreamIDs {
		specs[id] = streams.FaultSpec{
			Seed:     100 + int64(i)*7,
			DropProb: 0.05,
			DupProb:  0.05,
		}
	}
	mkSystem := func() *System {
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 1800,
			Step:          step,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	before := streams.LiveBatches()
	pipe, err := mkSystem().BuildChaosPipeline(from, until, ChaosConfig{Streams: specs})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: faulted run leaked buffers", live, before)
	}
	pipeDrops, pipeDups := 0, 0
	for _, cs := range pipe.Chaos {
		st := cs.Stats()
		pipeDrops += st.Dropped
		pipeDups += st.Duplicated
	}

	sdes, drops, dups := survivingSDEs(t, city, from, until, step, specs)
	if drops == 0 || dups == 0 {
		t.Fatalf("reference injected %d drops, %d dups: fault injection inert", drops, dups)
	}
	if pipeDrops != drops || pipeDups != dups {
		t.Errorf("pipeline faults (%d drops, %d dups) != reference faults (%d drops, %d dups)",
			pipeDrops, pipeDups, drops, dups)
	}
	var want []*Report
	if err := mkSystem().RunReplay(context.Background(), sdes, from, until, func(r *Report) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	compareReports(t, "chaos pipeline vs replay", reports, want)
}

// rowEvent materializes row i of a transport batch as a map-backed
// rtec event.
func rowEvent(b *streams.Batch, i int) rtec.Event {
	attrs := make(map[string]any, len(b.Cols))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		attrs[c.Name] = c.Value(i)
	}
	return rtec.NewEvent(b.Type, Time(b.Times[i]), b.Keys[i], attrs)
}

// mkRtecProcessor builds the monitoring processor the way
// buildPipeline does, over a fresh crowdless system.
func mkRtecProcessor(t *testing.T, from, until Time, ids []string) *rtecProcessor {
	t.Helper()
	sys, err := New(Config{
		City:          testCity(t),
		Seed:          7,
		WorkingMemory: 1800,
		Step:          900,
		Traffic: traffic.Config{
			NoisyPolicy: traffic.Pessimistic,
			Adaptive:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &rtecProcessor{
		system:     sys,
		step:       sys.cfg.Step,
		nextQ:      from + sys.cfg.Step,
		until:      until,
		watermarks: make(map[string]Time, len(ids)),
		degraded:   make(map[string]bool),
	}
	for _, id := range ids {
		p.watermarks[id] = from
	}
	return p
}

// TestColumnarChaosDelayRoundTrip is the reordering half of the chaos
// contract: a seeded fault mix including out-of-order re-delivery over
// batched transport must yield CE output identical to feeding the very
// same faulted rows one single-row envelope at a time, so every row
// walks the watermark on its own. Both sides consume the same faulted
// batch sequence through a deterministic single-threaded merge, so the
// comparison is exact — and the pooled buffers must all be back after
// the run (no aliasing after release).
//
// The reference is deliberately not RunReplay: a late row is admitted
// at the first boundary after the merge consumes it, not after its
// arrival stamp, so per-boundary fed counts legitimately differ from an
// arrival-ordered replay.
func TestColumnarChaosDelayRoundTrip(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	const step = Time(900)

	before := streams.LiveBatches()
	city := testCity(t)
	bstreams := city.CollectBatches(from, until, 512, step/2)
	ids := make([]string, 0, len(bstreams))

	// One seeded injector per stream: drops, duplicates and held-back
	// rows re-delivered out of order.
	type cursor struct {
		id   string
		src  *streams.ChaosSource
		next *streams.Batch
		done bool
	}
	cursors := make([]*cursor, 0, len(bstreams))
	for i, bs := range bstreams {
		ids = append(ids, bs.ID)
		items := make([]streams.Item, 0, len(bs.Batches))
		for _, b := range bs.Batches {
			items = append(items, streams.BatchItem(b))
		}
		cursors = append(cursors, &cursor{
			id: bs.ID,
			src: streams.NewChaosSource(streams.NewSliceSource(items...), streams.FaultSpec{
				Seed:      500 + int64(i)*13,
				DropProb:  0.03,
				DupProb:   0.03,
				DelayProb: 0.08,
				DelayMax:  4,
			}),
		})
	}
	advance := func(c *cursor) {
		it, ok := c.src.Read()
		if !ok {
			c.next, c.done = nil, true
			return
		}
		b, isBatch := streams.ItemBatch(it)
		if !isBatch {
			t.Fatalf("stream %s: injector emitted a non-batch item", c.id)
		}
		c.next = b
	}
	for _, c := range cursors {
		advance(c)
	}

	colProc := mkRtecProcessor(t, from, until, ids)
	rowProc := mkRtecProcessor(t, from, until, ids)
	var colReports, rowReports []*Report
	collect := func(dst *[]*Report, items []streams.Item) {
		for _, it := range items {
			rep, ok := it[itemReport].(*Report)
			if !ok {
				t.Fatalf("monitoring emitted a non-report item %v", it)
			}
			*dst = append(*dst, rep)
		}
	}

	// Deterministic merge: always consume the batch with the smallest
	// head arrival (ties by stream order) — one fixed interleaving both
	// sides see.
	faulted := 0
	for {
		pick := -1
		for i, c := range cursors {
			if c.done {
				continue
			}
			if pick < 0 || c.next.Arrivals[0] < cursors[pick].next.Arrivals[0] {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		c := cursors[pick]
		b := c.next
		faulted += b.Len()

		// Side B first: copy the rows into single-row envelopes before
		// side A consumes (and eventually releases) the batch.
		for i := 0; i < b.Len(); i++ {
			row := streams.GetBatch(b.Type, b.Source)
			row.AppendRowFrom(b, i)
			outs, err := rowProc.ProcessBatch(row)
			if err != nil {
				t.Fatal(err)
			}
			collect(&rowReports, outs)
		}
		// Side A: the same batch through the native columnar path.
		outs, err := colProc.ProcessBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		collect(&colReports, outs)
		advance(c)
	}
	if faulted == 0 {
		t.Fatal("no rows survived fault injection")
	}
	delayed := 0
	for _, c := range cursors {
		delayed += c.src.Stats().Delayed
	}
	if delayed == 0 {
		t.Fatal("no rows were re-ordered: delay injection inert")
	}

	colFlush, err := colProc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	collect(&colReports, colFlush)
	rowFlush, err := rowProc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	collect(&rowReports, rowFlush)

	if len(colReports) == 0 {
		t.Fatal("no reports produced")
	}
	compareReports(t, "delay chaos batches vs single rows", colReports, rowReports)
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: delayed buffers not returned to the pool", live, before)
	}
}

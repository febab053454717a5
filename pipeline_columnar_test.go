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

// gridRuleSets and gridSteps span the chaos grids: every rule-set
// variant of the Dublin deployment crossed with query steps from one
// window (gridWM) down to a quarter window.
var gridRuleSets = []struct {
	name string
	cfg  traffic.Config
}{
	{"crowd-validated", traffic.Config{NoisyPolicy: traffic.CrowdValidated}},
	{"pessimistic-adaptive", traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
	{"structured", traffic.Config{NoisyPolicy: traffic.Pessimistic, StructuredIntersections: true}},
}

const gridWM = Time(1800)

var gridSteps = []Time{gridWM, gridWM / 2, gridWM / 4}

// pessimisticAdaptive is the rule set the single-cell chaos tests run.
var pessimisticAdaptive = traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}

// chaosSpecs builds one seeded fault spec per pipeline stream: stream
// i gets seed base+i*stride and the given fault mix.
func chaosSpecs(base, stride int64, mix streams.FaultSpec) map[string]streams.FaultSpec {
	specs := make(map[string]streams.FaultSpec, len(pipelineStreamIDs))
	for i, id := range pipelineStreamIDs {
		spec := mix
		spec.Seed = base + int64(i)*stride
		specs[id] = spec
	}
	return specs
}

// TestChaosDropDupMatchesReplay runs the full chaos pipeline with
// row-level drops and duplicates on every input stream and checks it
// against the direct replay loop (System.RunReplay) over exactly the
// rows the same seeded injectors let through: the pipeline's watermark
// admission must deliver what an arrival-ordered replay of the faulted
// streams delivers, boundary by boundary. This is the pinned cell;
// TestColumnStoreMatchesRowStoreGrid runs the same check on every rule
// set × step cell of the grid.
func TestChaosDropDupMatchesReplay(t *testing.T) {
	checkDropDupMatchesReplay(t, testCity(t), pessimisticAdaptive, 900,
		chaosSpecs(100, 7, streams.FaultSpec{DropProb: 0.05, DupProb: 0.05}))
}

func checkDropDupMatchesReplay(t *testing.T, city *dublin.City, tc traffic.Config, step Time, specs map[string]streams.FaultSpec) {
	t.Helper()
	const from, until = Time(7 * 3600), Time(8 * 3600)
	mkSystem := func() *System {
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: gridWM,
			Step:          step,
			Traffic:       tc,
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
	if len(want) == 0 {
		t.Fatal("replay produced no reports")
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
func mkRtecProcessor(t *testing.T, city *dublin.City, tc traffic.Config, step, from, until Time, ids []string) *rtecProcessor {
	t.Helper()
	sys, err := New(Config{
		City:          city,
		Seed:          7,
		WorkingMemory: gridWM,
		Step:          step,
		Traffic:       tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &rtecProcessor{
		system:     sys,
		step:       step,
		nextQ:      from + step,
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
// walks the watermark on its own. This is the pinned cell (drops,
// duplicates and delays); TestColumnStoreMatchesRowStoreDelayed runs
// the same check (drops and delays) on every rule set × step cell of
// the grid. Both sides consume the same faulted batch sequence through
// a deterministic single-threaded merge, so the comparison is exact —
// and the pooled buffers must all be back after the run (no aliasing
// after release).
//
// The reference is deliberately not RunReplay: a late row is admitted
// at the first boundary after the merge consumes it, not after its
// arrival stamp, so per-boundary fed counts legitimately differ from an
// arrival-ordered replay.
func TestColumnarChaosDelayRoundTrip(t *testing.T) {
	checkDelayRoundTrip(t, testCity(t), pessimisticAdaptive, 900,
		chaosSpecs(500, 13, streams.FaultSpec{DropProb: 0.03, DupProb: 0.03, DelayProb: 0.08, DelayMax: 4}))
}

func checkDelayRoundTrip(t *testing.T, city *dublin.City, tc traffic.Config, step Time, specs map[string]streams.FaultSpec) {
	t.Helper()
	const from, until = Time(7 * 3600), Time(8 * 3600)

	before := streams.LiveBatches()
	merged := newChaosMerge(t, city, from, until, step, specs)
	colProc := mkRtecProcessor(t, city, tc, step, from, until, merged.ids)
	rowProc := mkRtecProcessor(t, city, tc, step, from, until, merged.ids)
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

	faulted := 0
	for b := merged.next(); b != nil; b = merged.next() {
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
	}
	if faulted == 0 {
		t.Fatal("no rows survived fault injection")
	}
	if merged.delayed() == 0 {
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

// chaosMerge replays the city's batch envelopes for one window through
// one seeded injector per stream and merges the faulted streams
// deterministically: always the batch with the smallest head arrival
// next, ties by stream order — one fixed interleaving every consumer
// sees.
type chaosMerge struct {
	t       *testing.T
	ids     []string
	cursors []*chaosCursor
}

type chaosCursor struct {
	id   string
	src  *streams.ChaosSource
	next *streams.Batch
	done bool
}

func newChaosMerge(t *testing.T, city *dublin.City, from, until, step Time, specs map[string]streams.FaultSpec) *chaosMerge {
	t.Helper()
	m := &chaosMerge{t: t}
	for _, bs := range city.CollectBatches(from, until, 512, step/2) {
		m.ids = append(m.ids, bs.ID)
		items := make([]streams.Item, 0, len(bs.Batches))
		for _, b := range bs.Batches {
			items = append(items, streams.BatchItem(b))
		}
		c := &chaosCursor{id: bs.ID, src: streams.NewChaosSource(streams.NewSliceSource(items...), specs[bs.ID])}
		m.advance(c)
		m.cursors = append(m.cursors, c)
	}
	return m
}

func (m *chaosMerge) advance(c *chaosCursor) {
	it, ok := c.src.Read()
	if !ok {
		c.next, c.done = nil, true
		return
	}
	b, isBatch := streams.ItemBatch(it)
	if !isBatch {
		m.t.Fatalf("stream %s: injector emitted a non-batch item", c.id)
	}
	c.next = b
}

// next returns the next batch of the merged sequence, or nil at the
// end of every stream.
func (m *chaosMerge) next() *streams.Batch {
	pick := -1
	for i, c := range m.cursors {
		if c.done {
			continue
		}
		if pick < 0 || c.next.Arrivals[0] < m.cursors[pick].next.Arrivals[0] {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	c := m.cursors[pick]
	b := c.next
	m.advance(c)
	return b
}

// delayed is the number of rows the injectors held back and
// re-delivered out of order.
func (m *chaosMerge) delayed() int {
	n := 0
	for _, c := range m.cursors {
		n += c.src.Stats().Delayed
	}
	return n
}

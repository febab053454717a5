package rtec_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// TestDublinStoreMatchesReference is the store-equivalence gate on the
// Dublin deployment: every rule-set variant, query steps from one
// window down to a quarter window, and seeded fault injection on every
// stream — drops with duplicates, and drops with out-of-order
// re-delivery — must leave the column store and the naive reference
// store with bit-identical recognition output and snapshots at every
// query boundary.
//
// The faulted streams are merged deterministically (smallest head
// arrival first, ties by stream order). A boundary Q fires once every
// stream head has moved past Q, and then admits the rows consumed so
// far whose arrival is at or before Q. A held-back row consumed after
// its boundary fired is admitted at the next one, below the last query
// time — the late-arrival regime the dirty watermark exists for.
func TestDublinStoreMatchesReference(t *testing.T) {
	const from, until = rtec.Time(7 * 3600), rtec.Time(8 * 3600)
	const wm = rtec.Time(1800)
	city, err := dublin.NewCity(dublin.Config{
		Seed:             42,
		NumBuses:         60,
		NumSensors:       60,
		Hotspots:         15,
		NoisyBusFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		t.Fatal(err)
	}
	ruleSets := []struct {
		name string
		cfg  traffic.Config
	}{
		{"crowd-validated", traffic.Config{NoisyPolicy: traffic.CrowdValidated}},
		{"pessimistic-adaptive", traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
		{"structured", traffic.Config{NoisyPolicy: traffic.Pessimistic, StructuredIntersections: true}},
	}
	faults := []struct {
		name string
		mix  streams.FaultSpec
	}{
		{"drop-dup", streams.FaultSpec{DropProb: 0.06, DupProb: 0.06}},
		{"drop-delay", streams.FaultSpec{DropProb: 0.03, DelayProb: 0.10, DelayMax: 4}},
	}

	for _, rs := range ruleSets {
		for _, step := range []rtec.Time{wm, wm / 2, wm / 4} {
			for _, fault := range faults {
				t.Run(fmt.Sprintf("%s/step=%d/%s", rs.name, int64(step), fault.name), func(t *testing.T) {
					tc := rs.cfg
					tc.Registry = reg
					tc.CrowdWindow = step + 600
					defs, err := traffic.Build(tc)
					if err != nil {
						t.Fatal(err)
					}
					opts := rtec.Options{WorkingMemory: wm, Step: step}
					col, err := rtec.NewEngine(defs, opts)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := rtec.NewReferenceEngine(defs, opts)
					if err != nil {
						t.Fatal(err)
					}
					runDublinStores(t, city, fault.mix, from, until, step, col, ref)
				})
			}
		}
	}
}

// pendingRows is a consumed batch whose rows are not all admitted yet.
type pendingRows struct {
	batch *streams.Batch
	blk   *rtec.Block
	rows  []int32
}

func runDublinStores(t *testing.T, city *dublin.City, mix streams.FaultSpec, from, until, step rtec.Time, col, ref *rtec.Engine) {
	t.Helper()
	type cursor struct {
		src  *streams.ChaosSource
		next *streams.Batch
	}
	var cursors []*cursor
	advance := func(c *cursor) {
		c.next = nil
		if it, ok := c.src.Read(); ok {
			b, isBatch := streams.ItemBatch(it)
			if !isBatch {
				t.Fatal("injector emitted a non-batch item")
			}
			c.next = b
		}
	}
	for i, bs := range city.CollectBatches(from, until, 512, step/2) {
		items := make([]streams.Item, 0, len(bs.Batches))
		for _, b := range bs.Batches {
			items = append(items, streams.BatchItem(b))
		}
		spec := mix
		spec.Seed = 300 + int64(i)*11
		c := &cursor{src: streams.NewChaosSource(streams.NewSliceSource(items...), spec)}
		advance(c)
		cursors = append(cursors, c)
	}
	// head is the cursor with the smallest head arrival, or nil once
	// every stream is exhausted.
	head := func() *cursor {
		var pick *cursor
		for _, c := range cursors {
			if c.next != nil && (pick == nil || c.next.Arrivals[0] < pick.next.Arrivals[0]) {
				pick = c
			}
		}
		return pick
	}

	var pending []pendingRows
	late, recognised := 0, 0
	lastQ := rtec.Time(rtec.MinTime)
	for q := from + step; q <= until; q += step {
		for c := head(); c != nil && rtec.Time(c.next.Arrivals[0]) <= q; c = head() {
			b := c.next
			rows := make([]int32, b.Len())
			for i := range rows {
				rows[i] = int32(i)
			}
			pending = append(pending, pendingRows{batch: b, blk: dublin.Block(b), rows: rows})
			advance(c)
		}
		kept := pending[:0]
		for _, p := range pending {
			var admit, wait []int32
			for _, r := range p.rows {
				if rtec.Time(p.batch.Arrivals[r]) <= q {
					admit = append(admit, r)
					if rtec.Time(p.batch.Times[r]) <= lastQ {
						late++
					}
				} else {
					wait = append(wait, r)
				}
			}
			if len(admit) > 0 {
				for _, e := range []*rtec.Engine{col, ref} {
					if err := e.InputBlockRows(p.blk, admit); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(wait) == 0 {
				p.batch.Release()
				continue
			}
			p.rows = wait
			kept = append(kept, p)
		}
		pending = kept

		got, err := col.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Fluents, want.Fluents) {
			t.Fatalf("q=%d: fluents differ:\ncolumn:    %v\nreference: %v", int64(q), got.Fluents, want.Fluents)
		}
		if !reflect.DeepEqual(got.Derived, want.Derived) {
			t.Fatalf("q=%d: derived events differ:\ncolumn:    %v\nreference: %v", int64(q), got.Derived, want.Derived)
		}
		if !reflect.DeepEqual(got.Fresh, want.Fresh) {
			t.Fatalf("q=%d: fresh events differ:\ncolumn:    %v\nreference: %v", int64(q), got.Fresh, want.Fresh)
		}
		gs, err := col.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("q=%d: snapshots differ", int64(q))
		}
		recognised += len(want.Fluents) + len(want.Derived)
		lastQ = q
	}
	for _, p := range pending {
		p.batch.Release()
	}
	for c := head(); c != nil; c = head() {
		c.next.Release()
		advance(c)
	}

	dropped, duplicated, delayed := 0, 0, 0
	for _, c := range cursors {
		st := c.src.Stats()
		dropped, duplicated, delayed = dropped+st.Dropped, duplicated+st.Duplicated, delayed+st.Delayed
	}
	if dropped == 0 || (mix.DupProb > 0 && duplicated == 0) || (mix.DelayProb > 0 && delayed == 0) {
		t.Fatalf("fault injection inert: %d dropped, %d duplicated, %d delayed", dropped, duplicated, delayed)
	}
	if late == 0 {
		t.Fatal("no row was admitted at or before the last query time: dirty watermark untested")
	}
	if recognised == 0 {
		t.Fatal("nothing recognised: gate is vacuous")
	}
}

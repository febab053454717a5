package rtec

import "sort"

// sdeStore is the engine's working memory: the time-indexed SDE
// buckets a query window is extracted from. The engine runs on the
// column-resident columnStore (colstore.go); the equivalence tests swap
// in a naive reference store through the same interface. The contract
// every implementation keeps:
//
//   - per-type buckets ordered by (occurrence time, arrival), so the
//     order is unique and insertion strategy never shows;
//   - a per-key view whose per-key sub-sequences follow the same
//     order;
//   - the per-type "dirty watermark" (lateMin): the earliest
//     occurrence time among events that arrived at or before the last
//     query time, which the incremental evaluator consults through
//     dirtyFloor.
//
// Query-visible behaviour (window contents, key sets, dirty floors,
// snapshots) must be bit-identical to the reference store; the
// randomized store-equivalence tests pin this.
type sdeStore interface {
	// insert files one event; late marks events landing at or before
	// the last query time.
	insert(ev Event, late bool)
	// insertRows files the given rows of a caller-owned block. The
	// rows must be time-sorted (ties in arrival order); the store
	// copies what it keeps, so the caller may recycle src afterwards.
	insertRows(src *Block, rows []int32, started bool, lastQ Time)
	// bucket returns the type's bucket view, or nil if the store holds
	// no events of the type.
	bucket(typ string) sdeBucket
	// evict permanently discards events with Time <= cutoff.
	evict(cutoff Time)
	dirtyFloor(sdeTypes map[string]bool) Time
	clearDirty()
	// residentBytes estimates the heap resident in the store's
	// long-lived structures (columns, indexes, dictionaries).
	// O(stored events); the engine only calls it under Profile.
	residentBytes() uint64
	// snapshotTypes flattens every bucket to the canonical row-oriented
	// snapshot form, types sorted by name — identical engine states
	// produce identical snapshots regardless of store implementation.
	snapshotTypes() ([]TypeSnapshot, error)
	// restoreType rebuilds one bucket from its snapshot (events
	// must be time-sorted; the caller has validated type and
	// uniqueness).
	restoreType(ts TypeSnapshot) error
}

// sdeBucket is the read-only window view of one type's bucket.
type sdeBucket interface {
	// rows returns the events with occurrence time in span, as a
	// zero-copy view in (time, arrival) order.
	rows(span Span) Rows
	// rowsForKey is rows restricted to one entity key.
	rowsForKey(key string, span Span) Rows
	// keysInSpan returns the distinct entity keys with events in span,
	// sorted.
	keysInSpan(span Span) []string
	// countInSpan returns the number of events in span.
	countInSpan(span Span) int
}

// sliceSpan restricts a time-sorted slice to [span.Start, span.End).
func sliceSpan(evs []Event, span Span) []Event {
	if len(evs) == 0 || span.Empty() {
		return nil
	}
	lo := 0
	if evs[0].Time < span.Start {
		lo = sort.Search(len(evs), func(i int) bool { return evs[i].Time >= span.Start })
	}
	hi := len(evs)
	if hi > lo && evs[hi-1].Time >= span.End {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return evs[lo+i].Time >= span.End })
	}
	if lo >= hi {
		return nil
	}
	return evs[lo:hi]
}

// Scratch buffers are sized by the largest merge overlap or block ever
// seen; one oversized burst (a delayed region flushing at once) must
// not pin that high-water mark forever. Buffers above the floor that a
// use fills to less than a quarter of capacity are reallocated at
// twice the need — the next burst pays one allocation, steady state
// pays none.
const scratchInt32Floor = 1 << 12 // int32 ids

// Per-entry cost constants for the resident-bytes estimates, fixed so
// the accounting is platform-independent (64-bit layout assumed).
const (
	sizeString  = 16 // string header
	sizeSlice   = 24 // slice header
	sizeMapSlot = 48 // rough per-entry map overhead incl. buckets
	sizeBox     = 16 // boxed interface value on the heap
)

// blockResidentBytes estimates the heap pinned by one owned block.
func blockResidentBytes(b *Block) uint64 {
	total := uint64(cap(b.Times)) * 8
	total += uint64(cap(b.Keys)) * sizeString
	for i := range b.Keys {
		total += uint64(len(b.Keys[i]))
	}
	total += uint64(cap(b.KIdx)) * 4
	for i := range b.KDict {
		total += sizeString + uint64(len(b.KDict[i]))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		total += uint64(len(c.Name))
		total += uint64(cap(c.F))*8 + uint64(cap(c.I))*8 + uint64(cap(c.B)) + uint64(cap(c.N))*8
		total += uint64(cap(c.SIdx))*4 + uint64(cap(c.A))*sizeBox + uint64(cap(c.Present))
		for i := range c.Dict {
			total += sizeString + uint64(len(c.Dict[i]))
		}
	}
	return total
}

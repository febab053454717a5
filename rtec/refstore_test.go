package rtec

import (
	"slices"
	"sort"
)

// refStore is the naive reference working memory the store-equivalence
// gates compare the column store against. It is written for obvious
// correctness, not speed: one time-sorted []Event per type kept by
// linear insertion, and every window access a linear scan. It has no
// per-key index, no bulk merge and no scratch buffers, and it shares no
// code with the column store beyond the sdeStore/sdeBucket interfaces
// and the Event, Rows and Block types.
type refStore struct {
	types map[string]*refBucket
}

// refBucket is one type's events in (time, arrival) order, plus the
// dirty watermark.
type refBucket struct {
	evs     []Event
	lateMin Time
}

func newRefStore() sdeStore { return &refStore{types: make(map[string]*refBucket)} }

func (s *refStore) bucketOf(typ string) *refBucket {
	b := s.types[typ]
	if b == nil {
		b = &refBucket{lateMin: MaxTime}
		s.types[typ] = b
	}
	return b
}

// bucket returns nil, not a nil *refBucket, on a miss.
func (s *refStore) bucket(typ string) sdeBucket {
	if b := s.types[typ]; b != nil {
		return b
	}
	return nil
}

// insert places ev after every stored event with Time <= ev.Time, so
// equal times keep arrival order.
func (s *refStore) insert(ev Event, late bool) {
	b := s.bucketOf(ev.Type)
	i := len(b.evs)
	for i > 0 && b.evs[i-1].Time > ev.Time {
		i--
	}
	b.evs = append(b.evs, Event{})
	copy(b.evs[i+1:], b.evs[i:])
	b.evs[i] = ev
	if late && ev.Time < b.lateMin {
		b.lateMin = ev.Time
	}
}

// insertRows copies every admitted row into a map-backed Event the
// store owns and inserts it.
func (s *refStore) insertRows(src *Block, rows []int32, started bool, lastQ Time) {
	for _, r := range rows {
		view := src.Event(int(r))
		attrs := make(map[string]any)
		for ci := range src.Cols {
			if v, ok := view.Get(src.Cols[ci].Name); ok {
				attrs[src.Cols[ci].Name] = v
			}
		}
		s.insert(NewEvent(src.Type, view.Time, view.Key, attrs), started && view.Time <= lastQ)
	}
}

func (s *refStore) evict(cutoff Time) {
	for typ, b := range s.types {
		b.evs = slices.DeleteFunc(b.evs, func(ev Event) bool { return ev.Time <= cutoff })
		if len(b.evs) == 0 && b.lateMin == MaxTime {
			delete(s.types, typ)
		}
	}
}

func (s *refStore) dirtyFloor(sdeTypes map[string]bool) Time {
	floor := MaxTime
	for typ := range sdeTypes {
		if b := s.types[typ]; b != nil && b.lateMin < floor {
			floor = b.lateMin
		}
	}
	return floor
}

func (s *refStore) clearDirty() {
	for _, b := range s.types {
		b.lateMin = MaxTime
	}
}

func (s *refStore) residentBytes() uint64 { return 0 }

func (s *refStore) snapshotTypes() ([]TypeSnapshot, error) {
	var out []TypeSnapshot
	for typ, b := range s.types {
		ts := TypeSnapshot{Type: typ, LateMin: b.lateMin, Events: make([]EventSnapshot, 0, len(b.evs))}
		for _, ev := range b.evs {
			es, err := snapshotEvent(ev)
			if err != nil {
				return nil, err
			}
			ts.Events = append(ts.Events, es)
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out, nil
}

func (s *refStore) restoreType(ts TypeSnapshot) error {
	b := s.bucketOf(ts.Type)
	b.lateMin = ts.LateMin
	for _, es := range ts.Events {
		ev, err := restoreEvent(ts.Type, es)
		if err != nil {
			return err
		}
		b.evs = append(b.evs, ev)
	}
	return nil
}

// rows returns the events in span, in (time, arrival) order.
func (b *refBucket) rows(span Span) Rows {
	var out []Event
	for _, ev := range b.evs {
		if span.Contains(ev.Time) {
			out = append(out, ev)
		}
	}
	return Rows{evs: out}
}

func (b *refBucket) rowsForKey(key string, span Span) Rows {
	var out []Event
	for _, ev := range b.rows(span).evs {
		if ev.Key == key {
			out = append(out, ev)
		}
	}
	return Rows{evs: out}
}

func (b *refBucket) keysInSpan(span Span) []string {
	var out []string
	for _, ev := range b.rows(span).evs {
		if !slices.Contains(out, ev.Key) {
			out = append(out, ev.Key)
		}
	}
	sort.Strings(out)
	return out
}

func (b *refBucket) countInSpan(span Span) int { return b.rows(span).Len() }

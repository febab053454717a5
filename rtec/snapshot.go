package rtec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/insight-dublin/insight/interval"
)

// Engine snapshots. A snapshot captures everything a Query's outcome
// depends on besides the definitions and options: the SDE store, the
// inertia seed (prev), the Fresh dedup set (seen) and the query clock.
// Restoring it into a fresh engine with the same definitions and
// options makes every subsequent Query bit-identical to the original
// engine's — the checkpointed-recovery contract the durable pipeline
// is built on.
//
// The incremental splice cache is deliberately not captured: a
// restored engine starts cold and recomputes its first window in full,
// which the PR 1 equivalence harness pins to the incremental path's
// output bit for bit. That keeps snapshots small and their format
// independent of per-rule cache internals.
//
// Every slice in a snapshot is deterministically ordered (types and
// fluents by name, instances by key/value, seen entries by
// type/key/time, events in store order), so identical engine states
// produce identical snapshots — which is what lets the chaos harness
// compare checkpoints across runs byte for byte.

// AttrKind is the dynamic type of one snapshotted event attribute.
// Go's int and int64 are kept distinct so a restored map-backed event
// returns the exact boxed type the original did from Event.Get.
type AttrKind uint8

const (
	// AttrFloat is a float64 attribute.
	AttrFloat AttrKind = iota
	// AttrInt64 is an int64 attribute.
	AttrInt64
	// AttrInt is a Go int attribute.
	AttrInt
	// AttrBool is a bool attribute.
	AttrBool
	// AttrStr is a string attribute.
	AttrStr
)

// Attr is one event attribute; Kind selects which value field is live.
type Attr struct {
	Name string
	Kind AttrKind
	F    float64
	I    int64
	B    bool
	S    string
}

// EventSnapshot is one stored SDE. Columnar view events are flattened
// to their attribute values — the restored event is map-backed, which
// is behaviourally identical through the Event accessors.
type EventSnapshot struct {
	Time  Time
	Key   string
	Attrs []Attr
}

// TypeSnapshot is one SDE type's store bucket, events in store order
// (time-sorted, arrival-stable).
type TypeSnapshot struct {
	Type    string
	LateMin Time
	Events  []EventSnapshot
}

// InstanceSnapshot is one fluent instance's un-clipped maximal
// intervals from the last query (the law-of-inertia seed).
type InstanceSnapshot struct {
	Key   string
	Value string
	Spans interval.List
}

// FluentSnapshot is one simple fluent's inertia state.
type FluentSnapshot struct {
	Name      string
	Instances []InstanceSnapshot
}

// SeenEntry is one derived-event identity already reported by an
// earlier query (the Result.Fresh dedup set).
type SeenEntry struct {
	Type string
	Key  string
	Time Time
}

// EngineSnapshot is the restorable state of one Engine.
type EngineSnapshot struct {
	LastQ   Time
	Started bool
	Types   []TypeSnapshot
	Prev    []FluentSnapshot
	Seen    []SeenEntry
}

// Snapshot captures the engine's restorable state. The engine is not
// mutated; take snapshots between Query calls (the pipeline does so at
// window boundaries), never concurrently with Input or Query.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	s := &EngineSnapshot{LastQ: e.lastQ, Started: e.started}

	// The store flattens itself to the canonical row-oriented form:
	// identical engine states produce identical snapshots whatever the
	// store's physical layout (row ids, dictionaries, dead rows).
	types, err := e.store.snapshotTypes()
	if err != nil {
		return nil, err
	}
	s.Types = types

	fluents := make([]string, 0, len(e.prev))
	for name := range e.prev {
		fluents = append(fluents, name)
	}
	sort.Strings(fluents)
	for _, name := range fluents {
		fs := FluentSnapshot{Name: name}
		for kv, l := range e.prev[name] {
			fs.Instances = append(fs.Instances, InstanceSnapshot{
				Key: kv.Key, Value: kv.Value, Spans: l.Clone(),
			})
		}
		sort.Slice(fs.Instances, func(i, j int) bool {
			a, b := fs.Instances[i], fs.Instances[j]
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			return a.Value < b.Value
		})
		s.Prev = append(s.Prev, fs)
	}

	for id := range e.seen {
		s.Seen = append(s.Seen, SeenEntry{Type: id.typ, Key: id.key, Time: id.time})
	}
	sort.Slice(s.Seen, func(i, j int) bool {
		a, b := s.Seen[i], s.Seen[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Time < b.Time
	})
	return s, nil
}

// snapshotEvent flattens one stored event to its attribute values,
// sorted by name — columnar views and map-backed events with the same
// attributes produce the same snapshot, which keeps snapshots
// idempotent across restore round trips.
func snapshotEvent(ev Event) (EventSnapshot, error) {
	es := EventSnapshot{Time: ev.Time, Key: ev.Key}
	if ev.blk != nil {
		row := int(ev.row)
		for ci := range ev.blk.Cols {
			c := &ev.blk.Cols[ci]
			if !c.present(row) {
				continue
			}
			a := Attr{Name: c.Name}
			switch c.Kind {
			case ColFloat:
				a.Kind, a.F = AttrFloat, c.F[row]
			case ColInt:
				a.Kind, a.I = AttrInt64, c.I[row]
			case ColBool:
				a.Kind, a.B = AttrBool, c.B[row]
			case ColIntGo:
				a.Kind, a.I = AttrInt, int64(c.N[row])
			case ColAny:
				var err error
				if a, err = attrFromValue(c.Name, c.A[row]); err != nil {
					return es, err
				}
			default:
				a.Kind, a.S = AttrStr, c.Dict[c.SIdx[row]]
			}
			es.Attrs = append(es.Attrs, a)
		}
		sort.Slice(es.Attrs, func(i, j int) bool { return es.Attrs[i].Name < es.Attrs[j].Name })
		return es, nil
	}
	if len(ev.Attrs) == 0 {
		return es, nil
	}
	names := make([]string, 0, len(ev.Attrs))
	for name := range ev.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, err := attrFromValue(name, ev.Attrs[name])
		if err != nil {
			return es, err
		}
		es.Attrs = append(es.Attrs, a)
	}
	return es, nil
}

// CanonicalAttrs renders an event's attributes in a canonical,
// representation-independent form: name-sorted, each value tagged with
// its kind, floats by their exact bit pattern. Two events carry the
// same attributes — whether map-backed or columnar views — exactly
// when their renderings are equal, and the rendering is totally
// ordered, which is what the Fresh dedup paths (engine-local and
// cross-shard) use to pick one deterministic survivor among derived
// events sharing an identity. Events with unsupported attribute types
// cannot be snapshotted either; they render with an error marker and
// still compare deterministically.
func CanonicalAttrs(ev Event) string {
	es, err := snapshotEvent(ev)
	if err != nil {
		return "!" + err.Error()
	}
	var b strings.Builder
	for _, a := range es.Attrs {
		b.WriteString(a.Name)
		b.WriteByte(0)
		switch a.Kind {
		case AttrFloat:
			fmt.Fprintf(&b, "f:%016x", math.Float64bits(a.F))
		case AttrInt64:
			fmt.Fprintf(&b, "i:%d", a.I)
		case AttrInt:
			fmt.Fprintf(&b, "n:%d", a.I)
		case AttrBool:
			fmt.Fprintf(&b, "b:%t", a.B)
		case AttrStr:
			b.WriteString("s:")
			b.WriteString(a.S)
		}
		b.WriteByte(0x1e)
	}
	return b.String()
}

// attrFromValue boxes one attribute value into its snapshot form.
func attrFromValue(name string, v any) (Attr, error) {
	a := Attr{Name: name}
	switch v := v.(type) {
	case float64:
		a.Kind, a.F = AttrFloat, v
	case int64:
		a.Kind, a.I = AttrInt64, v
	case int:
		a.Kind, a.I = AttrInt, int64(v)
	case bool:
		a.Kind, a.B = AttrBool, v
	case string:
		a.Kind, a.S = AttrStr, v
	default:
		return a, fmt.Errorf("attribute %q has unsupported type %T", name, v)
	}
	return a, nil
}

// restoreEvent rebuilds a map-backed event from its snapshot.
func restoreEvent(typ string, es EventSnapshot) (Event, error) {
	ev := Event{Type: typ, Time: es.Time, Key: es.Key}
	if len(es.Attrs) > 0 {
		ev.Attrs = make(map[string]any, len(es.Attrs))
		for _, a := range es.Attrs {
			switch a.Kind {
			case AttrFloat:
				ev.Attrs[a.Name] = a.F
			case AttrInt64:
				ev.Attrs[a.Name] = a.I
			case AttrInt:
				ev.Attrs[a.Name] = int(a.I)
			case AttrBool:
				ev.Attrs[a.Name] = a.B
			case AttrStr:
				ev.Attrs[a.Name] = a.S
			default:
				return ev, fmt.Errorf("rtec: attribute %q has unknown kind %d", a.Name, a.Kind)
			}
		}
	}
	return ev, nil
}

// Restore replaces the engine's state with a snapshot's. The engine
// must have been built with the same definitions and options as the
// snapshotted one; SDE types the definitions don't declare are
// rejected. All previous state — store, inertia, dedup set, splice
// caches — is discarded.
func (e *Engine) Restore(s *EngineSnapshot) error {
	// Snapshots are row-oriented and independent of the store's
	// physical layout, so the store is rebuilt from scratch.
	store := e.newStore()
	restored := make(map[string]bool, len(s.Types))
	for _, ts := range s.Types {
		if !e.defs.IsSDE(ts.Type) {
			return fmt.Errorf("rtec: snapshot type %q was not declared as an SDE", ts.Type)
		}
		if restored[ts.Type] {
			return fmt.Errorf("rtec: duplicate snapshot type %q", ts.Type)
		}
		restored[ts.Type] = true
		if err := store.restoreType(ts); err != nil {
			return err
		}
	}

	prev := make(map[string]map[KV]List, len(s.Prev))
	for _, fs := range s.Prev {
		if _, dup := prev[fs.Name]; dup {
			return fmt.Errorf("rtec: duplicate snapshot fluent %q", fs.Name)
		}
		m := make(map[KV]List, len(fs.Instances))
		for _, inst := range fs.Instances {
			if !inst.Spans.Valid() {
				return fmt.Errorf("rtec: snapshot fluent %q instance %s=%s has invalid intervals",
					fs.Name, inst.Key, inst.Value)
			}
			m[KV{Key: inst.Key, Value: inst.Value}] = inst.Spans.Clone()
		}
		prev[fs.Name] = m
	}

	seen := make(map[derivedID]bool, len(s.Seen))
	for _, se := range s.Seen {
		seen[derivedID{typ: se.Type, key: se.Key, time: se.Time}] = true
	}

	e.store = store
	e.prev = prev
	e.seen = seen
	e.cache = make(map[string]*ruleCache) // cold: first query recomputes in full
	e.lastQ = s.LastQ
	e.started = s.Started
	return nil
}

// Snapshot captures every partition's engine state, in partition
// order.
func (p *Partitioned) Snapshot() ([]*EngineSnapshot, error) {
	out := make([]*EngineSnapshot, len(p.engines))
	for i, e := range p.engines {
		s, err := e.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("rtec: partition %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Restore replaces every partition's engine state; snaps must hold one
// snapshot per partition, in partition order.
func (p *Partitioned) Restore(snaps []*EngineSnapshot) error {
	if len(snaps) != len(p.engines) {
		return fmt.Errorf("rtec: %d snapshots for %d partitions", len(snaps), len(p.engines))
	}
	for i, s := range snaps {
		if err := p.engines[i].Restore(s); err != nil {
			return fmt.Errorf("rtec: partition %d: %w", i, err)
		}
	}
	return nil
}

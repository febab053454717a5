package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the system. Spans are
// kept in memory and written out when the run ends.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // 0: a root span
	Name     string        `json:"name"`
	Boundary int64         `json:"boundary"` // query time the call serves; -1 when none
	Start    time.Duration `json:"start_ns"` // since the tracer's origin
	End      time.Duration `json:"end_ns"`
}

// tracer records spans. A nil tracer records nothing, so the untraced
// run executes exactly the same code with tracing off.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, boundary int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Boundary: boundary,
		Start: time.Since(t.origin),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children. Children may nest further and may
// overlap one another (concurrent calls); an overlapped stretch is
// subtracted once. Children reaching outside their parent are clipped
// to it.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within
// [start, end).
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations lists the wall times of the spans called name, in ms.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

package rtec

import (
	"reflect"
	"testing"
)

func testBlock() *Block {
	return &Block{
		Type:  "reading",
		Times: []int64{10, 20, 30},
		Keys:  []string{"s1", "s2", "s1"},
		Cols: []BCol{
			{Name: "level", Kind: ColFloat, F: []float64{0.25, 0.75, 0.9}},
			{Name: "count", Kind: ColInt, I: []int64{3, 7, -2}},
			{Name: "alarm", Kind: ColBool, B: []bool{false, true, true}},
			{Name: "zone", Kind: ColStr, SIdx: []uint32{0, 1, 0}, Dict: []string{"north", "south"}},
		},
	}
}

// mapTwin builds the map-backed event with the same attributes as row
// i of the block — the representation the view must be behaviourally
// identical to.
func mapTwin(b *Block, i int) Event {
	return NewEvent(b.Type, Time(b.Times[i]), b.Keys[i], map[string]any{
		"level": b.Cols[0].F[i],
		"count": b.Cols[1].I[i],
		"alarm": b.Cols[2].B[i],
		"zone":  b.Cols[3].Dict[b.Cols[3].SIdx[i]],
	})
}

func TestBlockViewAccessorParity(t *testing.T) {
	b := testBlock()
	for i := 0; i < b.Len(); i++ {
		view, twin := b.Event(i), mapTwin(b, i)
		if view.Type != twin.Type || view.Time != twin.Time || view.Key != twin.Key {
			t.Fatalf("row %d header: view %v, twin %v", i, view, twin)
		}
		for _, name := range []string{"level", "count", "alarm", "zone", "missing"} {
			gv, gok := view.Get(name)
			wv, wok := twin.Get(name)
			if gv != wv || gok != wok {
				t.Errorf("row %d Get(%q) = (%v, %v), want (%v, %v)", i, name, gv, gok, wv, wok)
			}
			ff, fok := view.Float(name)
			wf, wfok := twin.Float(name)
			if ff != wf || fok != wfok {
				t.Errorf("row %d Float(%q) = (%v, %v), want (%v, %v)", i, name, ff, fok, wf, wfok)
			}
			fi, iok := view.Int(name)
			wi, wiok := twin.Int(name)
			if fi != wi || iok != wiok {
				t.Errorf("row %d Int(%q) = (%v, %v), want (%v, %v)", i, name, fi, iok, wi, wiok)
			}
			fs, sok := view.Str(name)
			ws, wsok := twin.Str(name)
			if fs != ws || sok != wsok {
				t.Errorf("row %d Str(%q) = (%v, %v), want (%v, %v)", i, name, fs, sok, ws, wsok)
			}
			fb, bok := view.Bool(name)
			wb, wbok := twin.Bool(name)
			if fb != wb || bok != wbok {
				t.Errorf("row %d Bool(%q) = (%v, %v), want (%v, %v)", i, name, fb, bok, wb, wbok)
			}
		}
	}
}

func TestBlockViewCrossKindCoercion(t *testing.T) {
	b := testBlock()
	view := b.Event(2)
	// Float over an int column converts.
	if f, ok := view.Float("count"); !ok || f != -2 {
		t.Errorf("Float(count) = (%v, %v), want (-2, true)", f, ok)
	}
	// Int over a float column truncates toward zero.
	if n, ok := view.Int("level"); !ok || n != 0 {
		t.Errorf("Int(level) = (%v, %v), want (0, true)", n, ok)
	}
	// Str and Bool do not coerce across kinds.
	if _, ok := view.Str("count"); ok {
		t.Error("Str(count) succeeded on an int column")
	}
	if _, ok := view.Bool("level"); ok {
		t.Error("Bool(level) succeeded on a float column")
	}
}

// levelDefs recognises an "alert" fluent keyed by sensor, initiated
// when level > 0.5 and alarm is set, terminated when the zone reads
// "north" with a non-negative count — exercising every accessor kind
// inside a rule.
func levelDefs(t *testing.T) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Simple(SimpleFluent{
			Name:   "alert",
			Inputs: []string{"reading"},
			Transitions: func(ctx *Context) []Transition {
				var out []Transition
				for _, e := range ctx.Events("reading") {
					level, _ := e.Float("level")
					alarm, _ := e.Bool("alarm")
					zone, _ := e.Str("zone")
					count, _ := e.Int("count")
					if level > 0.5 && alarm {
						out = append(out, InitiateAt(e.Key, e.Time))
					}
					if zone == "north" && count >= 0 {
						out = append(out, TerminateAt(e.Key, e.Time))
					}
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// TestInputBlockMatchesInput feeds the same event sequence per-item
// and as column blocks — across several query boundaries, so the
// too-old filter and the late flag both trigger — and demands
// identical recognition output.
func TestInputBlockMatchesInput(t *testing.T) {
	opts := Options{WorkingMemory: 40, Step: 20}
	mkEngine := func() *Engine {
		e, err := NewEngine(levelDefs(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	type row struct {
		t     int64
		key   string
		level float64
		count int64
		alarm bool
		zone  string
	}
	chunks := [][]row{
		{{5, "s1", 0.8, 1, true, "south"}, {12, "s2", 0.3, 2, false, "south"}},
		{{18, "s1", 0.2, 0, false, "north"}, {3, "s2", 0.9, -1, true, "south"}}, // t=3: late after Q=20
		{{1, "s1", 0.9, 1, true, "south"}, {55, "s2", 0.7, 5, true, "south"}},   // t=1: too old after Q=40
	}
	queries := []Time{20, 40, 60}

	block := func(rs []row) *Block {
		b := &Block{Type: "reading", Cols: []BCol{
			{Name: "level", Kind: ColFloat},
			{Name: "count", Kind: ColInt},
			{Name: "alarm", Kind: ColBool},
			{Name: "zone", Kind: ColStr},
		}}
		dict := map[string]uint32{}
		for _, r := range rs {
			b.Times = append(b.Times, r.t)
			b.Keys = append(b.Keys, r.key)
			b.Cols[0].F = append(b.Cols[0].F, r.level)
			b.Cols[1].I = append(b.Cols[1].I, r.count)
			b.Cols[2].B = append(b.Cols[2].B, r.alarm)
			idx, ok := dict[r.zone]
			if !ok {
				idx = uint32(len(b.Cols[3].Dict))
				b.Cols[3].Dict = append(b.Cols[3].Dict, r.zone)
				dict[r.zone] = idx
			}
			b.Cols[3].SIdx = append(b.Cols[3].SIdx, idx)
		}
		return b
	}
	events := func(rs []row) []Event {
		out := make([]Event, len(rs))
		for i, r := range rs {
			out[i] = NewEvent("reading", Time(r.t), r.key, map[string]any{
				"level": r.level, "count": r.count, "alarm": r.alarm, "zone": r.zone,
			})
		}
		return out
	}

	itemEng, blockEng := mkEngine(), mkEngine()
	for ci, rs := range chunks {
		if err := itemEng.Input(events(rs)...); err != nil {
			t.Fatal(err)
		}
		if err := blockEng.InputBlock(block(rs)); err != nil {
			t.Fatal(err)
		}
		ri, err := itemEng.Query(queries[ci])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := blockEng.Query(queries[ci])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ri.Fluents, rb.Fluents) {
			t.Errorf("Q=%d fluents differ:\nitem:  %v\nblock: %v", queries[ci], ri.Fluents, rb.Fluents)
		}
		if ri.Stats.InputEvents != rb.Stats.InputEvents {
			t.Errorf("Q=%d input events: item %d, block %d", queries[ci], ri.Stats.InputEvents, rb.Stats.InputEvents)
		}
	}
}

// TestInputBlockRejectsUndeclared mirrors Input's type check.
func TestInputBlockRejectsUndeclared(t *testing.T) {
	e, err := NewEngine(levelDefs(t), Options{WorkingMemory: 40})
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{Type: "ghost", Times: []int64{1}, Keys: []string{"k"}}
	if err := e.InputBlock(b); err == nil {
		t.Fatal("undeclared SDE type accepted")
	}
}

// TestInputBlockCopies checks the engine owns its rows: mutating the
// source block after InputBlock must not change recognition.
func TestInputBlockCopies(t *testing.T) {
	e, err := NewEngine(levelDefs(t), Options{WorkingMemory: 40, Step: 20})
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{
		Type:  "reading",
		Times: []int64{5},
		Keys:  []string{"s1"},
		Cols: []BCol{
			{Name: "level", Kind: ColFloat, F: []float64{0.8}},
			{Name: "count", Kind: ColInt, I: []int64{1}},
			{Name: "alarm", Kind: ColBool, B: []bool{true}},
			{Name: "zone", Kind: ColStr, SIdx: []uint32{0}, Dict: []string{"south"}},
		},
	}
	if err := e.InputBlock(b); err != nil {
		t.Fatal(err)
	}
	// Scribble over the caller's block: recycle simulation.
	b.Times[0] = 0
	b.Keys[0] = "zzz"
	b.Cols[0].F[0] = 0
	b.Cols[2].B[0] = false
	res, err := e.Query(20)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := res.Fluents["alert"][KV{Key: "s1", Value: TrueValue}]
	if !ok || len(iv) == 0 {
		t.Fatalf("alert fluent missing after source block mutation: %v", res.Fluents)
	}
}

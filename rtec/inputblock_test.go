package rtec

import (
	"fmt"
	"strings"
	"testing"
)

// blockTwins builds two column-store engines fed the same valid prefix
// and queried once, so the too-old filter is live: twins[0] receives
// the block under test, twins[1] only what twins[0] accepted.
func blockTwins(t testing.TB) []equivEngine {
	t.Helper()
	opts := Options{WorkingMemory: 20, Step: 10}
	twins := []equivEngine{
		{name: "fed", e: newStoreEngine(t, storeColumn, opts)},
		{name: "twin", e: newStoreEngine(t, storeColumn, opts)},
	}
	prefix := []equivRow{
		{t: 5, key: "k1", attrs: map[string]any{"level": 0.95, "alarm": true}},
		{t: 18, key: "k2", attrs: map[string]any{"level": 0.2, "zone": "north", "count": int64(1)}},
		{t: 26, key: "k1", attrs: map[string]any{"level": 0.97, "alarm": true}},
		{t: 29, key: "k1", attrs: map[string]any{"level": 0.99}},
	}
	for _, ee := range twins {
		deliverChunk(t, ee, prefix)
	}
	compareAt(t, twins, 30, "prefix")
	return twins
}

// TestInputBlockRejectsMalformed pins InputBlock's atomic rejection:
// a block whose admitted rows reach past its keys, columns or
// dictionaries returns an error and leaves the store exactly as a twin
// engine that never saw it — snapshots included.
func TestInputBlockRejectsMalformed(t *testing.T) {
	valid := func() *Block {
		return &Block{
			Type:  "reading",
			Times: []int64{31, 33, 36},
			Keys:  []string{"k1", "k2", "k1"},
			KIdx:  []uint32{0, 1, 0},
			KDict: []string{"k1", "k2"},
			Cols: []BCol{
				{Name: "level", Kind: ColFloat, F: []float64{0.95, 0.4, 0.99}},
				{Name: "zone", Kind: ColStr, SIdx: []uint32{0, 1, 0}, Dict: []string{"north", "south"}},
			},
		}
	}
	cases := []struct {
		name  string
		mod   func(b *Block)
		rows  []int32
		extra string // a fragment the error must mention
	}{
		{name: "short column", mod: func(b *Block) { b.Cols[0].F = b.Cols[0].F[:2] }, extra: "level"},
		{name: "short present mask", mod: func(b *Block) { b.Cols[0].Present = []bool{true} }, extra: "level"},
		{name: "key id past dictionary", mod: func(b *Block) { b.KIdx[2] = 2 }, extra: "key id 2"},
		{name: "string id past dictionary", mod: func(b *Block) { b.Cols[1].SIdx[1] = 2 }, extra: "string id 2"},
		{name: "short keys", mod: func(b *Block) { b.KIdx, b.KDict, b.Keys = nil, nil, b.Keys[:2] }, extra: "2 keys"},
		{name: "short key ids", mod: func(b *Block) { b.KIdx = b.KIdx[:1] }, extra: "1 key ids"},
		{name: "unknown kind", mod: func(b *Block) { b.Cols[0].Kind = ColAny + 1 }, extra: "unknown kind"},
		{name: "repeated column", mod: func(b *Block) { b.Cols[1].Name = "level" }, extra: "repeats"},
		{name: "row past block", rows: []int32{0, 3}, extra: "no row 3"},
		{name: "negative row", rows: []int32{-1}, extra: "no row -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twins := blockTwins(t)
			b := valid()
			if tc.mod != nil {
				tc.mod(b)
			}
			var err error
			if tc.rows != nil {
				err = twins[0].e.InputBlockRows(b, tc.rows)
			} else {
				err = twins[0].e.InputBlock(b)
			}
			if err == nil {
				t.Fatal("malformed block accepted")
			}
			if !strings.Contains(err.Error(), tc.extra) {
				t.Fatalf("error %q does not mention %q", err, tc.extra)
			}
			compareAt(t, twins, 40, tc.name)
		})
	}
	// A malformed row that the too-old filter drops is never read, so
	// it cannot reject the block.
	twins := blockTwins(t)
	b := valid()
	b.Times[0] = 10 // ≤ Q−WM after the prefix query at 30
	b.KIdx[0] = 9
	for _, ee := range twins {
		if err := ee.e.InputBlock(b); err != nil {
			t.Fatalf("%s: block with a malformed too-old row rejected: %v", ee.name, err)
		}
	}
	compareAt(t, twins, 40, "too-old malformed row")
}

// fuzzBytes yields the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// fuzzColNames are the column names a fuzzed block draws from; few
// enough that repeats occur.
var fuzzColNames = [4]string{"level", "zone", "alarm", "count"}

// decodeFuzzBlock reads one block whose slice lengths and indexes may
// disagree. Layout: n (rows, %8), flags (bit 0 KIdx form, bit 1
// explicit rows, bit 2 Keys alongside KIdx), key shortfall (%4), KDict
// length (%4), n time bytes (clock−30 + b%40), one key byte per key
// (KIdx b%5, or Keys "k"+b%4), column count (%3); per column a
// selector (name sel%4, kind (sel>>2)%8, bit 7 a Present mask), a
// shortfall (%3), a Dict length (%3) and one value byte per cell; with
// flag bit 1, a row count (%6) and that many rows (b%10 − 1).
func decodeFuzzBlock(in *fuzzBytes, clock int64) (*Block, []int32) {
	n := int(in.next() % 8)
	flags := in.next()
	nkeys := max(0, n-int(in.next()%4))
	b := &Block{Type: "reading"}
	if flags&1 != 0 {
		b.KDict = []string{"k0", "k1", "k2"}[:in.next()%4]
	} else {
		in.next()
	}
	for i := 0; i < n; i++ {
		b.Times = append(b.Times, clock-30+int64(in.next()%40))
	}
	for i := 0; i < nkeys; i++ {
		v := in.next()
		if flags&1 != 0 {
			b.KIdx = append(b.KIdx, uint32(v%5))
		}
		if flags&1 == 0 || flags&4 != 0 {
			b.Keys = append(b.Keys, fmt.Sprintf("k%d", v%4))
		}
	}
	if flags&1 != 0 && b.KIdx == nil {
		b.KIdx = []uint32{} // dictionary form with no ids at all
	}
	for ncols := int(in.next() % 3); ncols > 0; ncols-- {
		sel := in.next()
		c := BCol{Name: fuzzColNames[sel%4], Kind: ColKind((sel >> 2) % 8)}
		m := max(0, n-int(in.next()%3))
		c.Dict = []string{"north", "south"}[:in.next()%3]
		for i := 0; i < m; i++ {
			v := in.next()
			switch c.Kind {
			case ColFloat:
				c.F = append(c.F, float64(v)/255)
			case ColInt:
				c.I = append(c.I, int64(v)-128)
			case ColBool:
				c.B = append(c.B, v&1 != 0)
			case ColStr:
				c.SIdx = append(c.SIdx, uint32(v%4))
			case ColIntGo:
				c.N = append(c.N, int(v)-128)
			case ColAny:
				if v&1 != 0 {
					c.A = append(c.A, float64(v)/255)
				} else {
					c.A = append(c.A, "north")
				}
			}
			if sel&0x80 != 0 {
				c.Present = append(c.Present, v&2 != 0)
			}
		}
		b.Cols = append(b.Cols, c)
	}
	if flags&2 == 0 {
		return b, nil
	}
	rows := []int32{}
	for k := int(in.next() % 6); k > 0; k-- {
		rows = append(rows, int32(in.next()%10)-1)
	}
	return b, rows
}

// FuzzInputBlock feeds blocks whose lengths and indexes may disagree
// through InputBlock/InputBlockRows. The engine must never panic; a
// rejected block must leave recognition output and snapshots equal to
// a twin's that never saw it, and an accepted one must be accepted by
// the twin too.
func FuzzInputBlock(f *testing.F) {
	// The four malformed shapes (see decodeFuzzBlock for the layout):
	// a column shorter than Times,
	f.Add([]byte{3, 0, 0, 0, 20, 25, 30, 1, 2, 1, 1, 0, 1, 0, 100, 200})
	// a KIdx entry past KDict,
	f.Add([]byte{3, 1, 0, 2, 20, 25, 30, 0, 1, 4, 0})
	// a string SIdx past Dict,
	f.Add([]byte{3, 0, 0, 0, 20, 25, 30, 1, 2, 1, 1, 13, 0, 2, 0, 1, 3})
	// Keys shorter than Times.
	f.Add([]byte{3, 0, 1, 0, 20, 25, 30, 1, 2, 0})
	// A well-formed block, then rows including a negative one.
	f.Add([]byte{3, 1, 0, 3, 20, 25, 30, 0, 1, 2, 1, 0x80, 0, 0, 100, 102, 200, 3, 2, 0, 1, 0, 2, 0, 0, 0, 0, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		twins := blockTwins(t)
		in := fuzzBytes(data)
		clock := int64(40)
		for blocks := 0; len(in) > 0 && blocks < 4; blocks++ {
			b, rows := decodeFuzzBlock(&in, clock)
			input := func(e *Engine) error {
				if rows != nil {
					return e.InputBlockRows(b, rows)
				}
				return e.InputBlock(b)
			}
			if err := input(twins[0].e); err == nil {
				if err := input(twins[1].e); err != nil {
					t.Fatalf("block %d: twin rejected what the engine accepted: %v", blocks, err)
				}
			}
			compareAt(t, twins, Time(clock), fmt.Sprintf("block %d", blocks))
			clock += 10
		}
	})
}

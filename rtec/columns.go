package rtec

import "fmt"

// Columnar SDE ingestion. The transport layer moves batches of
// same-typed events as struct-of-arrays blocks; instead of decoding
// each row into an attribute map before insertion, the engine copies
// the admitted rows into an owned Block and files lightweight view
// Events whose accessors read the columns directly. The store, the
// window machinery and every CE definition see ordinary Events — the
// view is behaviourally identical to a map-backed event with the same
// attributes (accessor coercions included) — but ingestion performs a
// handful of slice copies per block rather than one map allocation plus
// per-attribute boxing per event.

// ColKind is the value type of one block column.
type ColKind uint8

const (
	// ColFloat is a float64 column.
	ColFloat ColKind = iota
	// ColInt is an int64 column.
	ColInt
	// ColBool is a bool column.
	ColBool
	// ColStr is a dictionary-encoded string column.
	ColStr
	// ColIntGo is a Go int column. The resident column store keeps it
	// distinct from ColInt so a columnarised map event returns the
	// exact boxed type the original did from Event.Get.
	ColIntGo
	// ColAny is a boxed fallback column for rows whose attribute
	// values mix types (or use a type no packed column covers). Only
	// the resident column store produces it.
	ColAny
)

// BCol is one named attribute column of a Block. Exactly one data
// slice is populated, according to Kind; string columns carry per-row
// indexes into the small Dict table of distinct values.
//
// Present optionally marks which rows carry the attribute at all; a
// nil Present means every row does (the only case the transport layer
// produces). The resident column store uses the mask when events of
// one type disagree on their attribute sets.
type BCol struct {
	Name string
	Kind ColKind

	F       []float64
	I       []int64
	B       []bool
	SIdx    []uint32
	Dict    []string
	N       []int // ColIntGo
	A       []any // ColAny
	Present []bool

	// dict indexes Dict for find-or-add interning; only the resident
	// column store maintains it (nil on transport blocks).
	//state:derived interning index over Dict, rebuilt on append
	dict map[string]uint32
}

// present reports whether the attribute is set on row.
func (c *BCol) present(row int) bool {
	return c.Present == nil || c.Present[row]
}

// Block is a columnar batch of same-typed SDEs: occurrence times and
// entity keys in flat slices, one BCol per attribute, all of equal
// length. Times is []int64 rather than []Time so transport batches
// (whose flat slices are untyped int64) convert without copying.
// Blocks handed to InputBlock are read-only from the engine's
// perspective; the engine copies what it keeps, so the caller may
// recycle the block immediately after the call returns.
type Block struct {
	Type  string
	Times []int64
	// Keys is the transport representation; resident store segments
	// keep it nil and key rows through KIdx/KDict instead (see
	// colSeg), so the restore path rebuilds the dictionary form.
	//state:derived transport form of KIdx/KDict; nil on resident segments
	Keys []string
	Cols []BCol

	// KIdx/KDict optionally dictionary-encode Keys (KIdx[i] indexes
	// KDict, one entry per row when present). The store uses them to
	// group rows by entity key with small-integer ids instead of
	// hashing the key string per row; both may be nil, the key strings
	// in Keys stay authoritative either way. KDict entries must be
	// stable for the duration of the InputBlock call — the engine only
	// reads them transiently during insertion.
	KIdx  []uint32
	KDict []string
}

// checkRows reports the first reason any of the given rows cannot be
// read: a key slice or column (or its Present mask) too short to hold
// it, a key or string index past its dictionary, an unknown column
// kind or a repeated column name. InputBlock runs it over the admitted
// rows before filing any, so a malformed block is rejected whole.
func (b *Block) checkRows(rows []int32) error {
	var last int32
	for _, r := range rows {
		if r > last {
			last = r
		}
	}
	need := int(last) + 1
	if b.KIdx != nil {
		if len(b.KIdx) < need {
			return fmt.Errorf("rtec: block %q has %d key ids, row %d needs %d", b.Type, len(b.KIdx), last, need)
		}
		for _, r := range rows {
			if k := b.KIdx[r]; int(k) >= len(b.KDict) {
				return fmt.Errorf("rtec: block %q row %d: key id %d outside its %d-entry dictionary", b.Type, r, k, len(b.KDict))
			}
		}
	} else if len(b.Keys) < need {
		return fmt.Errorf("rtec: block %q has %d keys, row %d needs %d", b.Type, len(b.Keys), last, need)
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Kind > ColAny {
			return fmt.Errorf("rtec: block %q column %q has unknown kind %d", b.Type, c.Name, c.Kind)
		}
		if colLen(c) < need || (c.Present != nil && len(c.Present) < need) {
			return fmt.Errorf("rtec: block %q column %q is shorter than row %d", b.Type, c.Name, last)
		}
		for cj := 0; cj < ci; cj++ {
			if b.Cols[cj].Name == c.Name {
				return fmt.Errorf("rtec: block %q repeats column %q", b.Type, c.Name)
			}
		}
		if c.Kind != ColStr {
			continue
		}
		for _, r := range rows {
			if si := c.SIdx[r]; c.present(int(r)) && int(si) >= len(c.Dict) {
				return fmt.Errorf("rtec: block %q column %q row %d: string id %d outside its %d-entry dictionary", b.Type, c.Name, r, si, len(c.Dict))
			}
		}
	}
	return nil
}

// Len returns the number of rows.
func (b *Block) Len() int { return len(b.Times) }

// Key returns the entity key of row i. The resident column store
// keeps Keys nil and encodes every key through KIdx/KDict; transport
// blocks always populate Keys.
func (b *Block) Key(i int) string {
	if b.Keys == nil {
		return b.KDict[b.KIdx[i]]
	}
	return b.Keys[i]
}

// Event returns the view event of row i: an Event whose attribute
// accessors read b's columns. The view is valid for as long as the
// block is; the engine only builds views over blocks it owns.
func (b *Block) Event(i int) Event {
	return Event{Type: b.Type, Time: Time(b.Times[i]), Key: b.Key(i), blk: b, row: int32(i)}
}

// Column returns the named attribute column, or nil if the block does
// not carry it. The pointer is into b's Cols slice and is valid while
// the block is.
func (b *Block) Column(name string) *BCol {
	ci := b.colIndex(name)
	if ci < 0 {
		return nil
	}
	return &b.Cols[ci]
}

func (b *Block) colIndex(name string) int {
	for i := range b.Cols {
		if b.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// getAt is the Event.Get backend: the boxed value of one cell.
func (b *Block) getAt(name string, row int) (any, bool) {
	ci := b.colIndex(name)
	if ci < 0 {
		return nil, false
	}
	c := &b.Cols[ci]
	if !c.present(row) {
		return nil, false
	}
	switch c.Kind {
	case ColFloat:
		return c.F[row], true
	case ColInt:
		return c.I[row], true
	case ColBool:
		return c.B[row], true
	case ColIntGo:
		return c.N[row], true
	case ColAny:
		return c.A[row], true
	default:
		return c.Dict[c.SIdx[row]], true
	}
}

// floatAt mirrors the map accessor's coercions: float64 and integer
// attributes convert; strings and bools don't.
func (b *Block) floatAt(name string, row int) (float64, bool) {
	ci := b.colIndex(name)
	if ci < 0 {
		return 0, false
	}
	c := &b.Cols[ci]
	if !c.present(row) {
		return 0, false
	}
	switch c.Kind {
	case ColFloat:
		return c.F[row], true
	case ColInt:
		return float64(c.I[row]), true
	case ColIntGo:
		return float64(c.N[row]), true
	case ColAny:
		switch v := c.A[row].(type) {
		case float64:
			return v, true
		case int:
			return float64(v), true
		case int64:
			return float64(v), true
		}
	}
	return 0, false
}

// intAt mirrors the map accessor's coercions (floats truncate).
func (b *Block) intAt(name string, row int) (int64, bool) {
	ci := b.colIndex(name)
	if ci < 0 {
		return 0, false
	}
	c := &b.Cols[ci]
	if !c.present(row) {
		return 0, false
	}
	switch c.Kind {
	case ColInt:
		return c.I[row], true
	case ColFloat:
		return int64(c.F[row]), true
	case ColIntGo:
		return int64(c.N[row]), true
	case ColAny:
		switch v := c.A[row].(type) {
		case int64:
			return v, true
		case int:
			return int64(v), true
		case float64:
			return int64(v), true
		}
	}
	return 0, false
}

func (b *Block) strAt(name string, row int) (string, bool) {
	ci := b.colIndex(name)
	if ci < 0 {
		return "", false
	}
	c := &b.Cols[ci]
	if !c.present(row) {
		return "", false
	}
	switch c.Kind {
	case ColStr:
		return c.Dict[c.SIdx[row]], true
	case ColAny:
		v, ok := c.A[row].(string)
		return v, ok
	}
	return "", false
}

func (b *Block) boolAt(name string, row int) (bool, bool) {
	ci := b.colIndex(name)
	if ci < 0 {
		return false, false
	}
	c := &b.Cols[ci]
	if !c.present(row) {
		return false, false
	}
	switch c.Kind {
	case ColBool:
		return c.B[row], true
	case ColAny:
		v, ok := c.A[row].(bool)
		return v, ok
	}
	return false, false
}

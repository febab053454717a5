package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two children overlapping on [30, 40): covered once.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 2, Name: "c", Start: ms(15), End: ms(20)},
		// A child reaching past its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
		// A child nested entirely inside another child.
		{ID: 6, Parent: 1, Name: "e", Start: ms(32), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100) - ms(50) - ms(10), // covered: [10,60) and [90,100)
		2: ms(30) - ms(5),
		3: ms(30),
		4: ms(5),
		5: ms(30),
		6: ms(3),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, span{ID: 7, Name: "b", Start: ms(200), End: ms(201)}))
	if byName["b"] != ms(31) {
		t.Errorf("self time summed by name: b = %v, want 31ms", byName["b"])
	}
}

func TestSelfTimeDisjointAndTouchingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Start: ms(0), End: ms(2)},
		{ID: 3, Parent: 1, Start: ms(2), End: ms(4)}, // touches the previous one
		{ID: 4, Parent: 1, Start: ms(6), End: ms(7)},
		{ID: 5, Parent: 1, Start: ms(11), End: ms(12)}, // wholly outside
	}
	if got := selfTimes(spans)[1]; got != ms(5) {
		t.Errorf("self %v, want 5ms", got)
	}
}

func TestHighestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{100, 0.9, 90, true}, // exactly 10 samples beyond p90
		{99, 0.5, 50, true},  // 9 beyond p90: fall back to p50
		{20, 0.5, 10, true},  // exactly 10 beyond p50
		{19, 0, 0, false},    // 9 beyond p50: nothing qualifies
	}
	for _, c := range cases {
		got, ok := highestPercentile(seq(c.n), 0.5, 0.9)
		if ok != c.wantOK || got.P != c.wantP || got.Value != c.wantV || got.Samples != c.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%g=%g ok=%v", c.n, got, ok, c.wantP*100, c.wantV, c.wantOK)
		}
	}
	if got := percentileNote(tail{Value: 1, P: 0.9, Samples: 357}, true); got != "p90 of n=357" {
		t.Errorf("note %q", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median %g, want 3", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing %g, want 0", m)
	}
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2 {
		t.Errorf("nearest-rank median of 4 %g, want 2", q)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestDigest(t *testing.T) {
	sum := sha256.Sum256([]byte("q=1\nq=2\n"))
	if got, want := digest([]string{"q=1", "q=2"}), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	if digest([]string{"q=1", "q=2"}) == digest([]string{"q=2", "q=1"}) {
		t.Error("digest ignores order")
	}
	if digest([]string{"ab", "c"}) == digest([]string{"a", "bc"}) {
		t.Error("digest ignores fingerprint boundaries")
	}
}

func TestFlowTolerance(t *testing.T) {
	want := []float64{1250, 250.5, 0, -3}
	near := []float64{1250 * (1 + 5e-10), 250.5 * (1 - 9e-10), 4e-10, -3 * (1 + 1e-10)}
	if err := compareValues(near, want, 1e-9); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	far := append([]float64(nil), want...)
	far[1] = 250.5 * (1 + 2e-9)
	if err := compareValues(far, want, 1e-9); err == nil {
		t.Error("2e-9 relative error accepted at 1e-9")
	}
	if err := compareValues(want[:3], want, 1e-9); err == nil {
		t.Error("length mismatch accepted")
	}
	if relClose(math.NaN(), math.NaN(), 1e-9) {
		t.Error("NaN accepted")
	}
}

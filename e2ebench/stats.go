package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be non-empty. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 0.5 nearest-rank quantile; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// supports reports whether n samples leave at least minBeyond samples
// strictly above the nearest-rank p-quantile.
func supports(n int, p float64) bool {
	rank := int(math.Ceil(p * float64(n)))
	return n > 0 && n-rank >= minBeyond
}

// tail is a reported percentile: the value, the percentile it really
// is, and the sample count behind it.
type tail struct {
	Value   float64
	P       float64
	Samples int
}

// highestPercentile applies the reporting rule for tail latencies: of
// the wanted percentiles, report the highest one that has at least
// minBeyond samples beyond it. ok is false when none qualifies.
func highestPercentile(xs []float64, wanted ...float64) (tail, bool) {
	best := -1.0
	for _, p := range wanted {
		if supports(len(xs), p) && p > best {
			best = p
		}
	}
	if best < 0 {
		return tail{Samples: len(xs)}, false
	}
	return tail{Value: quantile(xs, best), P: best, Samples: len(xs)}, true
}

// digest is the SHA-256, hex-encoded, over the report fingerprints in
// query-time order, one per line.
func digest(fingerprints []string) string {
	h := sha256.New()
	for _, f := range fingerprints {
		h.Write([]byte(f))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relClose reports whether got matches want within rel relative
// error; values near zero are compared against rel absolutely, so a
// zero prediction does not demand bit-exactness.
func relClose(got, want, rel float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	scale := math.Max(math.Abs(want), 1)
	return math.Abs(got-want) <= rel*scale
}

// compareValues checks got against want element-wise within rel
// relative error and describes the first mismatch.
func compareValues(got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if !relClose(got[i], want[i], rel) {
			return fmt.Errorf("value %d is %.17g, want %.17g (relative tolerance %g)", i, got[i], want[i], rel)
		}
	}
	return nil
}

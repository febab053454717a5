package insight

import (
	"fmt"
	"testing"

	"github.com/insight-dublin/insight/streams"
)

// The two grids below once ran every cell twice, with the partition
// engines' working memory row-resident and column-resident, and
// compared the reports. The engine now has one working memory, the
// column store; the store dimension of these grids is gated in the rtec
// package (TestDublinStoreMatchesReference: column store vs a naive
// reference store, same rule sets, steps and fault mixes). What stays
// here is the system-level half: on every cell, the columnar pipeline
// must match a row-at-a-time reference fed the very same faulted rows.

// TestColumnStoreMatchesRowStoreGrid runs the drop/dup chaos gate on
// every rule-set variant of the Dublin deployment × query steps from
// one window down to a quarter window: the live concurrent pipeline,
// with seeded drops and duplicates on every stream, must deliver
// bit-identical reports to the direct replay loop (System.RunReplay)
// fed event by event with exactly the rows the same injectors let
// through. Drop/dup faults keep each stream arrival-ordered, so
// boundary admission is watermark-exact and the live pipeline stays
// deterministic.
func TestColumnStoreMatchesRowStoreGrid(t *testing.T) {
	city := testCity(t)
	for _, rs := range gridRuleSets {
		for _, step := range gridSteps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				checkDropDupMatchesReplay(t, city, rs.cfg, step,
					chaosSpecs(300, 11, streams.FaultSpec{DropProb: 0.06, DupProb: 0.06}))
			})
		}
	}
}

// TestColumnStoreMatchesRowStoreDelayed is the out-of-order half of the
// grid: seeded fault injection drops rows and holds others back,
// re-delivering them after their stream's arrival watermark has passed
// — the regime the dirty watermark exists for. The faulted streams are
// merged deterministically, and on every cell the batched processor
// must report bit-identically to a second processor fed the same rows
// as single-row envelopes.
func TestColumnStoreMatchesRowStoreDelayed(t *testing.T) {
	city := testCity(t)
	for _, rs := range gridRuleSets {
		for _, step := range gridSteps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				checkDelayRoundTrip(t, city, rs.cfg, step,
					chaosSpecs(300, 11, streams.FaultSpec{DropProb: 0.03, DelayProb: 0.10, DelayMax: 4}))
			})
		}
	}
}

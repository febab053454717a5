package insight

import (
	"testing"
	"time"

	"github.com/insight-dublin/insight/rtec"
)

// TestMergeResultsStats pins the engine-result merge the tier leans
// on: MergeResults must sum the memory accounting across shard
// results (ResidentBytes, AllocBytes) while taking the parallel max of
// Elapsed, and an idle shard's zero-valued result must not disturb the
// merge.
func TestMergeResultsStats(t *testing.T) {
	mk := func(resident, alloc uint64, elapsed time.Duration) *rtec.Result {
		return &rtec.Result{
			Q:      60,
			Window: rtec.Span{Start: 1, End: 61},
			Stats: rtec.Stats{
				ResidentBytes: resident,
				AllocBytes:    alloc,
				Elapsed:       elapsed,
			},
		}
	}
	merged := rtec.MergeResults([]*rtec.Result{
		mk(1000, 200, 5*time.Millisecond),
		mk(3000, 100, 2*time.Millisecond),
		mk(0, 0, 0), // idle shard
	})
	if merged.Stats.ResidentBytes != 4000 {
		t.Errorf("ResidentBytes = %d, want 4000", merged.Stats.ResidentBytes)
	}
	if merged.Stats.AllocBytes != 300 {
		t.Errorf("AllocBytes = %d, want 300", merged.Stats.AllocBytes)
	}
	if merged.Stats.Elapsed != 5*time.Millisecond {
		t.Errorf("Elapsed = %v, want 5ms (max)", merged.Stats.Elapsed)
	}
	if len(merged.Fluents) != 0 || len(merged.Derived) != 0 || len(merged.Fresh) != 0 {
		t.Errorf("empty shards produced content: %+v", merged)
	}
}

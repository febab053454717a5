package insight

import (
	"context"
	"testing"

	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// TestPipelineMatchesDirectRun drives the same city through the
// Streams data-flow graph (Section 3 architecture) and through the
// direct Run loop, crowdsourcing feedback loop included, and checks
// the recognition outcomes agree: the pipeline's watermark punctuation
// must deliver exactly the SDEs that have arrived by each query time,
// like the synchronous loop does. The pipeline run must also return
// every transport buffer to the pool.
func TestPipelineMatchesDirectRun(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600

	mkSystem := func() *System {
		city := testCity(t)
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 1800,
			Step:          900,
			Participants:  testParticipants(city, 8),
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Direct run.
	direct := mkSystem()
	var directReports []*Report
	if err := direct.Run(context.Background(), from, until, func(r *Report) error {
		directReports = append(directReports, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Pipeline run.
	before := streams.LiveBatches()
	pipelined := mkSystem()
	pipe, err := pipelined.BuildPipeline(from, until)
	if err != nil {
		t.Fatal(err)
	}
	pipeReports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: pipeline run leaked transport buffers", live, before)
	}

	if len(pipeReports) != len(directReports) {
		t.Fatalf("pipeline produced %d reports, direct run %d", len(pipeReports), len(directReports))
	}
	for i := range pipeReports {
		pr, dr := pipeReports[i], directReports[i]
		if pr.Q != dr.Q {
			t.Fatalf("report %d query time %d vs %d", i, pr.Q, dr.Q)
		}
		if pr.Stats.InputEvents != dr.Stats.InputEvents {
			t.Errorf("Q=%d: pipeline saw %d SDEs, direct %d", pr.Q, pr.Stats.InputEvents, dr.Stats.InputEvents)
		}
		if got, want := join(pr.CongestedIntersections), join(dr.CongestedIntersections); got != want {
			t.Errorf("Q=%d: congested intersections %q vs %q", pr.Q, got, want)
		}
		if got, want := join(pr.Disagreements), join(dr.Disagreements); got != want {
			t.Errorf("Q=%d: disagreements %q vs %q", pr.Q, got, want)
		}
		if got, want := join(pr.NoisyBuses), join(dr.NoisyBuses); got != want {
			t.Errorf("Q=%d: noisy buses %q vs %q", pr.Q, got, want)
		}
		if len(pr.CrowdRounds) != len(dr.CrowdRounds) {
			t.Errorf("Q=%d: crowd rounds %d vs %d", pr.Q, len(pr.CrowdRounds), len(dr.CrowdRounds))
		}
	}

	// The traffic modelling service is reachable from the topology.
	svc, ok := pipe.Topology.LookupService("trafficModel")
	if !ok {
		t.Fatal("trafficModel service not registered")
	}
	flowMap, ok := svc.(TrafficModelService)
	if !ok {
		t.Fatalf("trafficModel service has type %T", svc)
	}
	est, err := flowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Values) == 0 {
		t.Error("traffic model service produced no estimates")
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + ","
	}
	return out
}

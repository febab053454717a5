// Command shardbench measures the scaling of the N-way sharded
// recognition tier on the 10× Dublin profile (dublin.Profile10x: ~10×
// the paper's junctions, 9420 buses, 9660 SCATS sensors).
//
// For each shard count it replays the same rush-hour stream through a
// sharded system with serial shard evaluation (Config.ShardSerialEval)
// and reads the modeled cluster critical path off the tier: per query
// boundary, the slowest shard's evaluation time plus the reduce stage
// — what a deployment with one node per shard would spend, measured
// exactly even on a single-core host. Recognition throughput is the
// fed SDE count over that critical path; the headline number is the
// median speedup at 8 shards over 1, committed to BENCH_shard.json by
// `make bench-shard`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/traffic"
)

type shardPoint struct {
	Shards           int     `json:"shards"`
	Reps             int     `json:"reps"`
	Events           int     `json:"events"`
	Boundaries       int     `json:"boundaries"`
	CriticalNsAll    []int64 `json:"criticalNsAll"`
	MedianCriticalNs int64   `json:"medianCriticalNs"`
	EventsPerSec     float64 `json:"eventsPerSec"`
	SpeedupVs1       float64 `json:"speedupVs1"`
}

type benchOutput struct {
	Profile    string       `json:"profile"`
	Seed       int64        `json:"seed"`
	SpanSec    int64        `json:"spanSec"`
	StepSec    int64        `json:"stepSec"`
	Store      string       `json:"store"`
	Points     []shardPoint `json:"points"`
	Speedup8v1 float64      `json:"speedup8v1"`
}

func main() {
	out := flag.String("out", "", "write JSON results to this file")
	span := flag.Int64("span", 1800, "simulated stream span in seconds")
	reps := flag.Int("reps", 3, "repetitions per shard count (median reported)")
	flag.Parse()

	const from = insight.Time(7 * 3600)
	const step = insight.Time(900)
	until := from + insight.Time(*span)

	fmt.Printf("building 10x Dublin profile (9420 buses, 9660 sensors)...\n")
	city, err := dublin.NewCity(dublin.Profile10x(42))
	if err != nil {
		log.Fatal(err)
	}

	run := func(shards int) (critical time.Duration, events, boundaries int) {
		sys, err := insight.New(insight.Config{
			City:            city,
			Seed:            7,
			WorkingMemory:   1800,
			Step:            step,
			Shards:          shards,
			ShardSerialEval: true,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		err = sys.Run(context.Background(), from, until, func(r *insight.Report) error {
			events += r.FedEvents
			boundaries++
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return sys.ShardCriticalPath(), events, boundaries
	}

	res := benchOutput{
		Profile: "dublin.Profile10x(42)",
		Seed:    7,
		SpanSec: int64(*span),
		StepSec: int64(step),
		Store:   "column",
	}
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		pt := shardPoint{Shards: n, Reps: *reps}
		for r := 0; r < *reps; r++ {
			crit, events, boundaries := run(n)
			pt.CriticalNsAll = append(pt.CriticalNsAll, crit.Nanoseconds())
			pt.Events, pt.Boundaries = events, boundaries
		}
		sorted := append([]int64(nil), pt.CriticalNsAll...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pt.MedianCriticalNs = sorted[len(sorted)/2]
		pt.EventsPerSec = float64(pt.Events) / (float64(pt.MedianCriticalNs) / 1e9)
		if n == 1 {
			base = float64(pt.MedianCriticalNs)
		}
		pt.SpeedupVs1 = base / float64(pt.MedianCriticalNs)
		res.Points = append(res.Points, pt)
		fmt.Printf("shards=%d  events=%d  boundaries=%d  critical=%v  throughput=%.0f ev/s  speedup=%.2fx\n",
			n, pt.Events, pt.Boundaries, time.Duration(pt.MedianCriticalNs), pt.EventsPerSec, pt.SpeedupVs1)
	}
	res.Speedup8v1 = res.Points[len(res.Points)-1].SpeedupVs1
	fmt.Printf("speedup at 8 shards vs 1: %.2fx\n", res.Speedup8v1)

	if *out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

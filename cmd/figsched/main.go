// Command figsched runs the multi-tenant scheduler sweep: Poisson job
// arrivals (mixed applications, tenants, priority classes) against one
// resident machine, swept over offered load. It reports completion
// throughput, sojourn-latency percentiles and lane utilization per load
// point, and with -verify replays every job solo to prove the
// concurrent timeline is bit-identical to isolated execution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"updown/internal/arch"
	"updown/internal/harness"
)

func main() {
	nodes := flag.Int("nodes", 8, "machine node count")
	accels := flag.Int("accels", 4, "accelerators per node (paper: 32)")
	lanes := flag.Int("lanes", 16, "lanes per accelerator (paper: 64)")
	scale := flag.Int("scale", 9, "log2 vertex count of each tenant graph")
	jobs := flag.Int("jobs", 24, "submissions per load point")
	loads := flag.String("loads", "24000,12000,6000,3000", "comma-separated mean interarrival gaps in cycles")
	seed := flag.Uint64("seed", 42, "arrival/mix seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	quantum := flag.Int64("quantum", 4096, "scheduler reconcile quantum in cycles")
	verify := flag.Bool("verify", false, "replay every job solo and require bit-identical results")
	jsonPath := flag.String("json", "", "also write the result as JSON to this path")
	what := flag.String("what", "Multi-tenant scheduler: throughput and latency vs offered load", "description stored in the JSON payload")
	date := flag.String("date", "", "date stored in the JSON payload")
	progress := flag.Bool("progress", false, "print per-load progress to stderr")
	flag.Parse()

	var gaps []int64
	for _, f := range strings.Split(*loads, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			log.Fatalf("bad -loads entry %q: %v", f, err)
		}
		gaps = append(gaps, v)
	}
	res, err := harness.FigSched(harness.FigSchedOptions{
		Nodes: *nodes, AccelsPerNode: *accels, LanesPerAccel: *lanes,
		Scale: *scale, Jobs: *jobs, Loads: gaps, Seed: *seed,
		Shards: *shards, Quantum: arch.Cycles(*quantum),
		Verify: *verify, Progress: harness.ProgressWriter(*progress),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("figsched: %d nodes x %d lanes, %d jobs/load, scale %d, seed %d\n",
		res.Nodes, res.LanesPerNode, res.Jobs, res.Scale, res.Seed)
	fmt.Printf("%10s %10s %8s %5s %5s %10s %10s %10s %7s %6s\n",
		"gap(cyc)", "offered/s", "jobs/s", "done", "rej", "p50(ms)", "p99(ms)", "util%", "maxconc", "mkspan")
	for _, r := range res.Rows {
		fmt.Printf("%10d %10.1f %8.1f %5d %5d %10.4f %10.4f %10.2f %7d %6.2fms\n",
			r.MeanGapCycles, r.OfferedJobsPerSec, r.JobsPerSec, r.DoneJobs, r.RejectedJobs,
			r.P50Ms, r.P99Ms, r.LaneUtilPct, r.MaxConcurrent,
			float64(r.MakespanCycles)/2e6) // 2 GHz clock -> ms
	}
	if *verify {
		fmt.Printf("verified: %d jobs bit-identical to solo replays\n", res.Verified)
	}

	if *jsonPath != "" {
		doc := struct {
			What string `json:"what"`
			Date string `json:"date,omitempty"`
			*harness.FigSchedResult
		}{What: *what, Date: *date, FigSchedResult: res}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

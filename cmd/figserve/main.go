// Command figserve runs the interactive query-serving sweep: an
// open-loop Poisson stream of point queries (BFS reachability,
// personalized PageRank) against one warm resident machine, swept over
// arrival rate in both fused (micro-batched) and unfused
// (one-query-per-cycle) modes. It reports queries/sec, sojourn-latency
// percentiles, lane utilization and the batch-fusion factor per sweep
// point, and records the saturation comparison between the two modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"updown"
	"updown/internal/harness"
)

func main() {
	nodes := flag.Int("nodes", 2, "machine node count")
	accels := flag.Int("accels", 4, "accelerators per node (paper: 32)")
	lanes := flag.Int("lanes", 16, "lanes per accelerator (paper: 64)")
	scale := flag.Int("scale", 8, "log2 vertex count of the resident graph")
	queries := flag.Int("queries", 48, "queries per sweep point")
	gaps := flag.String("gaps", "32000,16000,8000,4000,2000", "comma-separated mean interarrival gaps in cycles")
	seed := flag.Uint64("seed", 42, "arrival/mix seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	quantum := flag.Int64("quantum", 4096, "serving reconcile quantum in cycles")
	fuse := flag.Int64("fuse", 2048, "micro-batching fuse window in cycles")
	slots := flag.Int("slots", 0, "engine micro-batch capacity (0 = default)")
	jsonPath := flag.String("json", "", "also write the result as JSON to this path")
	what := flag.String("what", "Interactive query serving: queries/sec and tail latency vs arrival rate", "description stored in the JSON payload")
	date := flag.String("date", "", "date stored in the JSON payload")
	progress := flag.Bool("progress", false, "print per-sweep-point progress to stderr")
	flag.Parse()

	var gapList []int64
	for _, f := range strings.Split(*gaps, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			log.Fatalf("bad -gaps entry %q: %v", f, err)
		}
		gapList = append(gapList, v)
	}
	res, err := harness.FigServe(harness.FigServeOptions{
		Nodes: *nodes, AccelsPerNode: *accels, LanesPerAccel: *lanes,
		Scale: *scale, Queries: *queries, Gaps: gapList, Seed: *seed,
		Shards: *shards, Quantum: updown.Cycles(*quantum),
		FuseWindow: updown.Cycles(*fuse), Slots: *slots, Progress: harness.ProgressWriter(*progress),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("figserve: %d nodes x %d lanes, %d queries/point, scale %d, %d slots, seed %d\n",
		res.Nodes, res.LanesPerNode, res.Queries, res.Scale, res.Slots, res.Seed)
	show := func(name string, rows []harness.ServeRow) {
		fmt.Printf("%s:\n%10s %10s %8s %5s %5s %10s %10s %10s %7s %7s\n", name,
			"gap(cyc)", "offered/s", "q/s", "done", "shed", "p50(ms)", "p99(ms)", "p999(ms)", "util%", "x/batch")
		for _, r := range rows {
			fmt.Printf("%10d %10.1f %8.1f %5d %5d %10.4f %10.4f %10.4f %7.2f %7.2f\n",
				r.MeanGapCycles, r.OfferedQPS, r.QPS, r.Served, r.Shed,
				r.P50Ms, r.P99Ms, r.P999Ms, r.LaneUtilPct, r.FusedPerBatch)
		}
	}
	show("fused", res.Fused.Rows)
	show("unfused", res.Unfused.Rows)
	fmt.Printf("saturation: fused %.1f q/s vs unfused %.1f q/s (%+.1f%%), p99 %.4f vs %.4f ms\n",
		res.Comparison.SaturationQPS["fused"], res.Comparison.SaturationQPS["unfused"],
		res.Comparison.QPSGainPct,
		res.Comparison.SaturationP99Ms["fused"], res.Comparison.SaturationP99Ms["unfused"])

	if *jsonPath != "" {
		doc := struct {
			What string `json:"what"`
			Date string `json:"date,omitempty"`
			*harness.FigServeResult
		}{What: *what, Date: *date, FigServeResult: res}
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

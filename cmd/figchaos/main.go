// Command figchaos runs the fault-injection resilience sweep: BFS with
// the resilient KVMSR shuffle at increasing message-drop rates, asserting
// that application results are bit-identical to the fault-free run at
// every rate and reporting goodput, recovery latency and the protocol's
// retry/dedup counters.
//
//	figchaos -scale 12 -nodes 2 -drops 0.01,0.02,0.05,0.1 -dup 0.02
//	figchaos -failstop            # add a spare node and kill it mid-run
//	figchaos -critpath -markdown  # crit% column, GitHub-table output
//
// With -rep k (k >= 2) it instead runs the replicated-memory chaos
// suite: BFS, PageRank and TC on k-way replicated global memory with a
// data-carrying node fail-stopped mid-run, asserting correct output and
// zero data loss, then backfilling the victim (in place, or onto the
// spare node with -spare).
//
//	figchaos -rep 2               # quorum reads + hinted handoff, healed in place
//	figchaos -rep 3 -spare        # triple replication, backfill onto the spare
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"

	"updown/internal/arch"
	"updown/internal/harness"
)

func main() {
	scale := flag.Int("scale", 12, "log2 vertex count")
	nodes := flag.Int("nodes", 2, "application node count")
	drops := flag.String("drops", "0.01,0.02,0.05,0.1", "comma-separated drop rates to sweep")
	dup := flag.Float64("dup", 0.02, "duplication probability on faulted rows")
	delay := flag.Float64("delay", 0, "delay probability on faulted rows")
	delayCycles := flag.Int64("delay-cycles", 0, "max extra delay cycles (0 = cross-node latency)")
	seed := flag.Uint64("seed", 42, "graph generator seed")
	faultSeed := flag.Uint64("fault-seed", 1, "fault verdict seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	failstop := flag.Bool("failstop", false, "add a spare node and fail-stop it mid-run on faulted rows")
	rep := flag.Int("rep", 0, "replication factor: run the replicated-memory chaos suite at k-way placement (>= 2)")
	spare := flag.Bool("spare", false, "with -rep, backfill the victim's data onto the spare node instead of in place")
	apps := flag.String("apps", "", "with -rep, comma-separated workload subset of bfs,pagerank,tc (default all)")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per row and add the crit% column")
	markdown := flag.Bool("markdown", false, "emit a GitHub-markdown table")
	progress := flag.Bool("progress", false, "print per-run progress lines to stderr while the sweep runs")
	flag.Parse()

	if *rep > 1 {
		var sel []string
		for _, a := range strings.Split(*apps, ",") {
			if a = strings.TrimSpace(a); a != "" {
				sel = append(sel, a)
			}
		}
		tb, err := harness.ChaosReplicated(harness.ChaosRepOptions{
			Scale: *scale, Rep: *rep, Shards: *shards, Seed: *seed,
			Spare: *spare, Apps: sel,
			Progress: harness.ProgressWriter(*progress),
		})
		if err != nil {
			log.Fatal(err)
		}
		harness.PrintTables(*markdown, tb)
		return
	}

	var rates []float64
	for _, s := range strings.Split(*drops, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil || r < 0 || r >= 1 {
			log.Fatalf("figchaos: drop rate %q: want a value in [0,1)", s)
		}
		if r > 0 {
			rates = append(rates, r)
		}
	}

	tb, err := harness.ChaosBFS(harness.ChaosOptions{
		Scale: *scale, Nodes: *nodes, DropRates: rates,
		DupProb: *dup, DelayProb: *delay, DelayCycles: arch.Cycles(*delayCycles),
		Seed: *seed, FaultSeed: *faultSeed, Shards: *shards,
		FailStop: *failstop, CritPath: *critpath,
		Progress: harness.ProgressWriter(*progress),
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tb)
}

// Command fig12 regenerates Figure 12 of the paper: the performance impact
// of the DRAMmalloc NRnodes placement parameter on PageRank and BFS with
// compute held fixed. Only one number changes per row — the NRnodes
// argument of the allocation call.
package main

import (
	"flag"
	"log"

	"updown/internal/harness"
)

func main() {
	compute := flag.Int("compute", 16, "fixed compute node count (the paper uses 64)")
	mem := flag.String("mem", "1,2,4,8,16", "memory-node sweep (NRnodes)")
	scale := flag.Int("scale", 14, "log2 vertex count")
	bw := flag.Int("dram-bw", 100, "per-node DRAM bytes/cycle (paper hardware: 4700; the reduced default keeps the reduced-scale graph memory-bound)")
	seed := flag.Uint64("seed", 42, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	reps := flag.String("reps", "", "replication factors for the replication-tax extension (e.g. 2,3; empty = off)")
	markdown := flag.Bool("markdown", false, "emit GitHub-markdown tables")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per run and add the crit% column")
	progress := flag.Bool("progress", false, "print per-configuration progress lines to stderr while the sweep runs")
	flag.Parse()

	ms, err := harness.ParseNodeList(*mem)
	if err != nil {
		log.Fatal(err)
	}
	var ks []int
	if *reps != "" {
		if ks, err = harness.ParseNodeList(*reps); err != nil {
			log.Fatal(err)
		}
	}
	tables, err := harness.Fig12Placement(harness.Fig12Options{
		ComputeNodes: *compute, MemNodes: ms, Scale: *scale,
		DRAMBytesPerCycle: *bw, Seed: *seed, Reps: ks,
		SweepOptions: harness.SweepOptions{Shards: *shards, CritPath: *critpath,
			Progress: harness.ProgressWriter(*progress)},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tables...)
}

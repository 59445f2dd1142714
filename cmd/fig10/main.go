// Command fig10 regenerates Figure 10 / Table 11 of the paper: ingestion
// (TFORM parse + streaming graph insertion) throughput scaling over node
// counts and dataset sizes.
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"

	"updown/internal/harness"
)

func main() {
	records := flag.Int("records", 10000, "record count of the 1x dataset")
	mults := flag.String("mults", "0.1,1,2", "dataset multipliers (the paper's data <m>)")
	nodes := flag.String("nodes", "1,2,4,8", "comma-separated node counts")
	block := flag.Int("block", 512, "parallel-file block bytes")
	seed := flag.Uint64("seed", 7, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	markdown := flag.Bool("markdown", false, "emit GitHub-markdown tables")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per run and add the crit% column")
	progress := flag.Bool("progress", false, "print per-configuration progress lines to stderr while the sweep runs")
	flag.Parse()

	ns, err := harness.ParseNodeList(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	var multipliers []float64
	for _, f := range strings.Split(*mults, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			log.Fatalf("bad multiplier %q", f)
		}
		multipliers = append(multipliers, v)
	}
	tables, err := harness.Fig10Ingestion(harness.Fig10Options{
		BaseRecords: *records, Multipliers: multipliers, Nodes: ns,
		BlockBytes: *block, Seed: *seed,
		SweepOptions: harness.SweepOptions{Shards: *shards, CritPath: *critpath,
			Progress: harness.ProgressWriter(*progress)},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tables...)
}

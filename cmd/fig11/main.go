// Command fig11 regenerates Figure 11 / Table 12 of the paper: partial
// match streaming-query latency versus compute resources.
package main

import (
	"flag"
	"log"

	"updown/internal/arch"
	"updown/internal/harness"
)

func main() {
	records := flag.Int("records", 1500, "stream length")
	inter := flag.Int64("interarrival", 8, "record interarrival (cycles)")
	lanes := flag.String("lanes", "32,128,512,2048", "lane-count sweep (2048 = one node)")
	seed := flag.Uint64("seed", 11, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	markdown := flag.Bool("markdown", false, "emit a GitHub-markdown table")
	flag.Parse()

	ls, err := harness.ParseNodeList(*lanes)
	if err != nil {
		log.Fatal(err)
	}
	tb, err := harness.Fig11PartialMatch(harness.Fig11Options{
		Records: *records, Interarrival: arch.Cycles(*inter),
		LaneCounts: ls, Seed: *seed, SweepOptions: harness.SweepOptions{Shards: *shards},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tb)
}

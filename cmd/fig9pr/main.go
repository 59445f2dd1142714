// Command fig9pr regenerates Figure 9 (left) / Table 8 of the paper:
// PageRank strong scaling over UpDown node counts.
//
// Defaults are reduced-scale (minutes); approach the paper's configuration
// with e.g.
//
//	fig9pr -scale 20 -nodes 1,2,4,8,16,32,64,128,256
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/harness"
)

func main() {
	scale := flag.Int("scale", 16, "log2 vertex count")
	nodes := flag.String("nodes", "1,2,4,8,16", "comma-separated node counts")
	presets := flag.String("graphs", "rmat,erdos-renyi,forest-fire,twitter", "workload presets")
	iters := flag.Int("iters", 1, "PageRank iterations")
	seed := flag.Uint64("seed", 42, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	validate := flag.Bool("validate", true, "cross-check against host baseline")
	abs := flag.Bool("abs", false, "also measure the host multicore baseline wall-clock")
	markdown := flag.Bool("markdown", false, "emit GitHub-markdown tables")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per run and add the crit% column")
	coalesce := flag.Bool("coalesce", false, "use the coalescing KVMSR shuffle and add the msgs/tup-per-msg columns")
	combine := flag.Bool("combine", false, "with -coalesce: pre-reduce same-key contributions in the pack buffers")
	progress := flag.Bool("progress", false, "print per-configuration progress lines to stderr while the sweep runs")
	flag.Parse()

	if *combine && !*coalesce {
		log.Fatal("-combine pre-reduces pack buffers: add -coalesce")
	}
	ns, err := harness.ParseNodeList(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	tables, err := harness.Fig9PageRank(harness.Fig9Options{
		Scale: *scale, Nodes: ns, Presets: strings.Split(*presets, ","),
		Iterations: *iters, Seed: *seed, Validate: *validate,
		Coalesce: *coalesce, Combine: *combine,
		SweepOptions: harness.SweepOptions{Shards: *shards, CritPath: *critpath,
			Progress: harness.ProgressWriter(*progress)},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tables...)
	if *abs {
		// -iters 0 runs one iteration, as the simulated sweep does.
		reportHostPR(*scale, *seed, max(*iters, 1))
	}
}

// reportHostPR measures the conventional-multicore comparator, the stand-in
// for the paper's Perlmutter reference (Section 5.2.1).
func reportHostPR(scale int, seed uint64, iters int) {
	g, err := graph.Generate("rmat", scale, seed, false)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	baseline.PageRankParallel(g, iters, 0)
	el := time.Since(start).Seconds()
	fmt.Printf("host multicore baseline: %d edges x %d iters in %.4fs = %.4f GUPS\n",
		g.NumEdges(), iters, el, float64(g.NumEdges())*float64(iters)/el/1e9)
}

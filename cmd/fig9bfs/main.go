// Command fig9bfs regenerates Figure 9 (center) / Table 9 of the paper:
// BFS strong scaling over UpDown node counts.
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
	presets := flag.String("graphs", "rmat,com-orkut,soc-livej", "workload presets")
	seed := flag.Uint64("seed", 42, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	validate := flag.Bool("validate", true, "cross-check against host baseline")
	abs := flag.Bool("abs", false, "also measure the host multicore baseline wall-clock")
	markdown := flag.Bool("markdown", false, "emit GitHub-markdown tables")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per run and add the crit% column")
	coalesce := flag.Bool("coalesce", false, "use the coalescing KVMSR shuffle and add the msgs/tup-per-msg columns")
	progress := flag.Bool("progress", false, "print per-configuration progress lines to stderr while the sweep runs")
	flag.Parse()

	ns, err := harness.ParseNodeList(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	tables, err := harness.Fig9BFS(harness.Fig9Options{
		Scale: *scale, Nodes: ns, Presets: strings.Split(*presets, ","),
		Seed: *seed, Validate: *validate, Coalesce: *coalesce,
		SweepOptions: harness.SweepOptions{Shards: *shards, CritPath: *critpath,
			Progress: harness.ProgressWriter(*progress)},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tables...)
	if *abs {
		g, err := graph.Generate("rmat", *scale, *seed, false)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		baseline.BFSParallel(g, 28, 0)
		el := time.Since(start).Seconds()
		fmt.Printf("host multicore baseline: %d edges in %.4fs = %.4f GTEPS\n",
			g.NumEdges(), el, float64(g.NumEdges())/el/1e9)
	}
}

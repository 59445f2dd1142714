// Command fig9tc regenerates Figure 9 (right) / Table 10 of the paper:
// triangle-counting strong scaling over UpDown node counts.
package main

import (
	"flag"
	"log"
	"strings"

	"updown/internal/harness"
)

func main() {
	scale := flag.Int("scale", 11, "log2 vertex count")
	nodes := flag.String("nodes", "1,2,4,8,16", "comma-separated node counts")
	presets := flag.String("graphs", "friendster,com-orkut,soc-livej,rmat", "workload presets")
	seed := flag.Uint64("seed", 42, "generator seed")
	shards := flag.Int("shards", 0, "simulator host parallelism (0 = auto)")
	validate := flag.Bool("validate", true, "cross-check against host baseline")
	markdown := flag.Bool("markdown", false, "emit GitHub-markdown tables")
	critpath := flag.Bool("critpath", false, "extract the causal critical path per run and add the crit% column")
	coalesce := flag.Bool("coalesce", false, "use the coalescing KVMSR shuffle and add the msgs/tup-per-msg columns")
	combine := flag.Bool("combine", false, "with -coalesce: install the keep-first pair combiner (exercises the combining path; pair keys are unique)")
	progress := flag.Bool("progress", false, "print per-configuration progress lines to stderr while the sweep runs")
	flag.Parse()

	if *combine && !*coalesce {
		log.Fatal("-combine pre-reduces pack buffers: add -coalesce")
	}
	ns, err := harness.ParseNodeList(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	tables, err := harness.Fig9TC(harness.Fig9Options{
		Scale: *scale, Nodes: ns, Presets: strings.Split(*presets, ","),
		Seed: *seed, Validate: *validate, Coalesce: *coalesce, Combine: *combine,
		SweepOptions: harness.SweepOptions{Shards: *shards, CritPath: *critpath,
			Progress: harness.ProgressWriter(*progress)},
	})
	if err != nil {
		log.Fatal(err)
	}
	harness.PrintTables(*markdown, tables...)
}

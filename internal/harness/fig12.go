package harness

import (
	"fmt"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/metrics"
)

// Fig12Options configures the data-placement sweep. On this sweep the
// Profile DRAM% column is the direct readout of the bandwidth knee the
// figure is about.
type Fig12Options struct {
	SweepOptions
	// ComputeNodes is the fixed machine size (the paper fixes 64).
	ComputeNodes int
	// MemNodes sweeps the DRAMmalloc NRnodes parameter.
	MemNodes []int
	// Scale is the PR/BFS graph scale.
	Scale int
	// DRAMBytesPerCycle overrides the per-node memory bandwidth. The
	// default reduces it so the reduced-scale graph sits in the same
	// memory-bound operating regime as the paper's scale-28 runs; pass
	// 4700 with a large Scale for the true parameter.
	DRAMBytesPerCycle int
	Seed              uint64
	// Reps, when non-empty, appends the replication extension: with the
	// memory-node count fixed at the largest swept value, every DRAMmalloc
	// is repeated at each listed replication factor and the tables gain
	// the tax% (makespan increase over k=1) and dramx (DRAM service-byte
	// multiple over k=1) columns — the price of the self-healing placement
	// when nothing fails. A leading 1 is implied; it is the baseline row.
	Reps []int
}

// fig12Config is one row of a placement table: the row key, the machine
// configuration and the DRAMmalloc NRnodes argument.
type fig12Config struct {
	key string
	cfg updown.Config
	mem int
}

// fig12Sweep runs one placement table: each row loads split striped over
// its memory nodes and runs the application newApp builds; work is the
// run's metric numerator in giga-units. It returns each row's total DRAM
// service bytes when the table is relative.
func fig12Sweep[A interface {
	runner
	Elapsed() arch.Cycles
}](s *sweep, rows []fig12Config, split *graph.SplitGraph,
	newApp func(*updown.Machine, *graph.DeviceGraph) (A, error), work func(A) float64) ([]int64, error) {
	var dram []int64
	for _, r := range rows {
		err := runRow(s, r.key, r.key, r.cfg,
			func(m *updown.Machine) (A, error) {
				dg, err := graph.LoadToGAS(m.GAS, split, graph.Placement{FirstNode: 0, NRNodes: r.mem, BlockBytes: 32 << 10})
				if err != nil {
					var none A
					return none, err
				}
				return newApp(m, dg)
			},
			func(app A, m *updown.Machine) (Row, error) {
				if s.relative {
					var bytes int64
					prof := m.Metrics.Profile()
					for n := range prof.Nodes {
						bytes += prof.Nodes[n].Totals().DRAMBytes
					}
					dram = append(dram, bytes)
				}
				return rateRow(m, app.Elapsed(), work(app), 1e9), nil
			})
		if err != nil {
			return nil, err
		}
	}
	s.tb.FillSpeedups()
	return dram, nil
}

// Fig12Placement regenerates Figure 12: the performance impact of the
// DRAMmalloc NRnodes parameter on PR (graph placement) and BFS (frontier
// and graph placement), holding compute fixed. Only the placement argument
// changes between rows — "only a single number was changed in a
// DRAMmalloc() call".
func Fig12Placement(opt Fig12Options) ([]*Table, error) {
	if opt.ComputeNodes == 0 {
		opt.ComputeNodes = 16
	}
	if len(opt.MemNodes) == 0 {
		opt.MemNodes = []int{1, 2, 4, 8, 16}
	}
	if opt.Scale == 0 {
		opt.Scale = 14
	}
	if opt.DRAMBytesPerCycle == 0 {
		opt.DRAMBytesPerCycle = 100
	}
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	if opt.MaxTime == 0 {
		opt.MaxTime = 1 << 44
	}
	g, err := graph.Generate("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	prSplit := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	bfsSplit := graph.Split(g, 256)
	edges := func(*pagerank.App) float64 { return float64(g.NumEdges()) }
	traversed := func(a *bfs.App) float64 { return float64(a.Traversed) }

	var rows []fig12Config
	for _, mem := range opt.MemNodes {
		rows = append(rows, fig12Config{fmt.Sprintf("mem=%d", mem), opt.machine(0), mem})
	}
	prT := &Table{
		Title:      "Figure 12: DRAMmalloc NRnodes sweep (PageRank, graph placement)",
		Workload:   fmt.Sprintf("rmat s%d, %d compute nodes, DRAM %dB/cycle/node", opt.Scale, opt.ComputeNodes, opt.DRAMBytesPerCycle),
		MetricName: "GUPS",
	}
	if _, err := fig12Sweep(&sweep{opt: opt.SweepOptions, tb: prT, tag: "fig12-pr"}, rows, prSplit, pagerankNew, edges); err != nil {
		return nil, err
	}
	bfsT := &Table{
		Title:      "Figure 12: DRAMmalloc NRnodes sweep (BFS, graph placement)",
		Workload:   prT.Workload,
		MetricName: "GTEPS",
	}
	if _, err := fig12Sweep(&sweep{opt: opt.SweepOptions, tb: bfsT, tag: "fig12-bfs"}, rows, bfsSplit, bfsNew, traversed); err != nil {
		return nil, err
	}
	note := "per-node bandwidth reduced to keep the reduced-scale graph memory-bound, matching the paper's s28 operating point"
	prT.Notes = append(prT.Notes, note)
	bfsT.Notes = append(bfsT.Notes, note)
	if len(opt.Reps) == 0 {
		return []*Table{prT, bfsT}, nil
	}

	// The replication extension: the memory-node count is pinned at the
	// largest swept value and only the machine's replication factor
	// changes between rows, so the cycle and DRAM-byte deltas are the pure
	// cost of fanning every global write out to k replicas. Metrics are
	// forced on — the dramx column is the point of the table.
	mem := opt.MemNodes[len(opt.MemNodes)-1]
	reps := []int{1}
	for _, k := range opt.Reps {
		if k > reps[len(reps)-1] {
			reps = append(reps, k)
		}
	}
	if mx := gasmem.FloorPow2(mem); reps[len(reps)-1] > mx {
		return nil, fmt.Errorf("fig12: replication factor %d exceeds the %d-node placement", reps[len(reps)-1], mx)
	}
	var repRows []fig12Config
	for _, k := range reps {
		cfg := opt.machine(k)
		cfg.Metrics = &metrics.Options{}
		repRows = append(repRows, fig12Config{fmt.Sprintf("k=%d", k), cfg, mem})
	}
	workload := fmt.Sprintf("rmat s%d, %d compute nodes, mem=%d, DRAM %dB/cycle/node", opt.Scale, opt.ComputeNodes, mem, opt.DRAMBytesPerCycle)
	tables := []*Table{prT, bfsT}
	for _, app := range []string{"PageRank", "BFS"} {
		tb := &Table{
			Title:    fmt.Sprintf("Figure 12 extension: replication tax (%s, k-way replicated placement)", app),
			Workload: workload,
		}
		s := &sweep{opt: opt.SweepOptions, tb: tb, relative: true}
		var dram []int64
		if app == "PageRank" {
			tb.MetricName, s.tag = "GUPS", "fig12-rep pr"
			dram, err = fig12Sweep(s, repRows, prSplit, pagerankNew, edges)
		} else {
			tb.MetricName, s.tag = "GTEPS", "fig12-rep bfs"
			dram, err = fig12Sweep(s, repRows, bfsSplit, bfsNew, traversed)
		}
		if err != nil {
			return nil, err
		}
		base := tb.Rows[0]
		for i := range tb.Rows {
			tb.Rows[i].TaxPct = 100 * (float64(tb.Rows[i].Cycles)/float64(base.Cycles) - 1)
			if dram[0] > 0 {
				tb.Rows[i].DRAMx = float64(dram[i]) / float64(dram[0])
			}
		}
		tb.Notes = append(tb.Notes,
			"tax% is the makespan increase and dramx the DRAM service-byte multiple, both over the k=1 row; writes fan out to k replicas, reads are served by one stripe")
		tables = append(tables, tb)
	}
	return tables, nil
}

// machine is the fixed-compute, reduced-bandwidth machine of every
// Figure 12 row, with k-way replicated placement (0 = off).
func (o *Fig12Options) machine(k int) updown.Config {
	a := arch.DefaultMachine(o.ComputeNodes)
	a.DRAMBytesPerCycle = o.DRAMBytesPerCycle
	return updown.Config{Arch: &a, Replication: k}
}

func pagerankNew(m *updown.Machine, dg *graph.DeviceGraph) (*pagerank.App, error) {
	app, err := pagerank.New(m, dg, pagerank.Config{Iterations: 1})
	if err != nil {
		return nil, err
	}
	app.InitValues()
	return app, nil
}

func bfsNew(m *updown.Machine, dg *graph.DeviceGraph) (*bfs.App, error) {
	app, err := bfs.New(m, dg, bfs.Config{Root: 28})
	if err != nil {
		return nil, err
	}
	app.InitValues()
	return app, nil
}

package harness

import (
	"fmt"
	"math"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// Fig9Options configures the strong-scaling sweeps of Figure 9.
type Fig9Options struct {
	SweepOptions
	// Scale is log2 of the vertex count (paper: 25-29; default here is
	// laptop-scale).
	Scale int
	// Nodes is the machine-size sweep.
	Nodes []int
	// Presets selects workloads by name (see graph.Presets).
	Presets []string
	// Seed drives the generators.
	Seed uint64
	// Iterations for PageRank (0 = 1).
	Iterations int
	// Validate cross-checks every run against the host baseline.
	Validate bool
	// Coalesce opts every row into the coalescing shuffle (multi-tuple
	// packed messages); the msgs and tup/msg columns show the traffic.
	Coalesce bool
	// Combine additionally installs the application's combiner (PageRank:
	// float add; TC: keep-first). Requires Coalesce; BFS ignores it.
	Combine bool
}

func (o *Fig9Options) defaults(scale int, presets []string) {
	if o.Scale == 0 {
		o.Scale = scale
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []int{1, 2, 4, 8, 16}
	}
	if len(o.Presets) == 0 {
		o.Presets = presets
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MaxTime == 0 {
		o.MaxTime = 1 << 44
	}
}

// coalesceConfig returns the coalescing-shuffle config for a sweep row:
// nil (one message per tuple) unless coalescing was requested.
func coalesceConfig(on bool) *kvmsr.Coalesce {
	if !on {
		return nil
	}
	return &kvmsr.Coalesce{}
}

// fig9Sweep runs the node-count sweep of one Figure 9 table: every row
// loads split with the default placement, build installs the application
// on it, and fill validates the run and returns the row's columns.
func fig9Sweep[A runner](opt *Fig9Options, tb *Table, tag string, split *graph.SplitGraph,
	build func(*updown.Machine, *graph.DeviceGraph) (A, error),
	fill func(A, *updown.Machine) (Row, error), validated string) error {
	s := &sweep{opt: opt.SweepOptions, tb: tb, tag: tag, shuffle: true}
	for _, nodes := range opt.Nodes {
		cfg := updown.Config{Nodes: nodes, Coalesce: coalesceConfig(opt.Coalesce)}
		load := func(m *updown.Machine) (A, error) {
			dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(nodes))
			if err != nil {
				var none A
				return none, err
			}
			return build(m, dg)
		}
		if err := runRow(s, fmt.Sprintf("nodes=%d", nodes), fmt.Sprint(nodes), cfg, load, fill); err != nil {
			return err
		}
	}
	tb.FillSpeedups()
	if opt.Validate {
		tb.Notes = append(tb.Notes, validated)
	}
	return nil
}

// Fig9PageRank regenerates Figure 9 (left) / Table 8: PageRank strong
// scaling. The metric is simulated giga-updates per second (one update
// per edge per iteration).
func Fig9PageRank(opt Fig9Options) ([]*Table, error) {
	opt.defaults(16, []string{"rmat", "erdos-renyi", "forest-fire", "twitter"})
	var tables []*Table
	for _, name := range opt.Presets {
		// The paper's preprocessing symmetrizes inputs unless -d is
		// passed; PR uses that default, so the degree cap bounds
		// in-degree too and the split spreads both directions.
		g, err := graph.Generate(name, opt.Scale, opt.Seed, true)
		if err != nil {
			return nil, err
		}
		// The paper splits PR inputs to max degree 512 at scale 28,
		// where a hub's member run spans several lanes' Block ranges;
		// the scale-matched cap here keeps that property (cap ~= max
		// degree x lanes / vertices).
		split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
		tb := &Table{
			Title:      "Figure 9 (left) / Table 8: PageRank strong scaling",
			Workload:   fmt.Sprintf("%s s%d (%d vertices, %d edges, split to 64)", name, opt.Scale, g.N, g.NumEdges()),
			MetricName: "GUPS",
		}
		// The baseline runs the iteration count the app resolved.
		var want []float64
		err = fig9Sweep(&opt, tb, "fig9-pr "+name, split,
			func(m *updown.Machine, dg *graph.DeviceGraph) (*pagerank.App, error) {
				app, err := pagerank.New(m, dg, pagerank.Config{Iterations: opt.Iterations, Combine: opt.Combine})
				if err != nil {
					return nil, err
				}
				app.InitValues()
				return app, nil
			},
			func(app *pagerank.App, m *updown.Machine) (Row, error) {
				if opt.Validate {
					if want == nil {
						want = baseline.PageRank(g, app.Iterations())
					}
					if err := comparePR(app.Values(), want); err != nil {
						return Row{}, err
					}
				}
				return rateRow(m, app.Elapsed(), float64(g.NumEdges())*float64(app.Iterations()), 1e9), nil
			}, "values validated against host baseline at every configuration")
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

func comparePR(got, want []float64) error {
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*math.Abs(want[v])+1e-13 {
			return fmt.Errorf("pagerank mismatch at vertex %d: %v vs %v", v, got[v], want[v])
		}
	}
	return nil
}

// Fig9BFS regenerates Figure 9 (center) / Table 9: BFS strong scaling.
// The metric is simulated giga-traversed-edges per second.
func Fig9BFS(opt Fig9Options) ([]*Table, error) {
	opt.defaults(16, []string{"rmat", "com-orkut", "soc-livej"})
	var tables []*Table
	for _, name := range opt.Presets {
		g, err := graph.Generate(name, opt.Scale, opt.Seed, false)
		if err != nil {
			return nil, err
		}
		// Scale-matched from the paper's 4096-at-s28 BFS cap: a hub
		// frontier entry must not serialize one lane for a whole round.
		split := graph.Split(g, 256)
		root := uint32(28) // the paper's RMAT root
		if name == "erdos-renyi" {
			root = 0
		}
		var want []uint32
		if opt.Validate {
			want = baseline.BFS(g, root)
		}
		tb := &Table{
			Title:      "Figure 9 (center) / Table 9: BFS strong scaling",
			Workload:   fmt.Sprintf("%s s%d (%d vertices, %d edges, root %d)", name, opt.Scale, g.N, g.NumEdges(), root),
			MetricName: "GTEPS",
		}
		err = fig9Sweep(&opt, tb, "fig9-bfs "+name, split,
			func(m *updown.Machine, dg *graph.DeviceGraph) (*bfs.App, error) {
				app, err := bfs.New(m, dg, bfs.Config{Root: root})
				if err != nil {
					return nil, err
				}
				app.InitValues()
				return app, nil
			},
			func(app *bfs.App, m *updown.Machine) (Row, error) {
				if opt.Validate {
					if err := compareBFS(app.Distances(), want); err != nil {
						return Row{}, err
					}
				}
				return rateRow(m, app.Elapsed(), float64(app.Traversed), 1e9), nil
			}, "distances validated against host baseline at every configuration")
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

func compareBFS(got []uint64, want []uint32) error {
	for v := range want {
		w := uint64(want[v])
		if want[v] == baseline.Unreached {
			w = bfs.Unvisited
		}
		if got[v] != w {
			return fmt.Errorf("bfs mismatch at vertex %d: %d vs %d", v, got[v], w)
		}
	}
	return nil
}

// Fig9TC regenerates Figure 9 (right) / Table 10: triangle counting strong
// scaling. The metric is mega-intersection-operations per second.
func Fig9TC(opt Fig9Options) ([]*Table, error) {
	opt.defaults(11, []string{"friendster", "com-orkut", "soc-livej", "rmat"})
	var tables []*Table
	for _, name := range opt.Presets {
		g, err := graph.Generate(name, opt.Scale, opt.Seed, true)
		if err != nil {
			return nil, err
		}
		var want uint64
		if opt.Validate {
			want = baseline.TriangleCount(g)
		}
		tb := &Table{
			Title:      "Figure 9 (right) / Table 10: TC strong scaling",
			Workload:   fmt.Sprintf("%s s%d (%d vertices, %d edges)", name, opt.Scale, g.N, g.NumEdges()),
			MetricName: "Mops/s",
		}
		err = fig9Sweep(&opt, tb, "fig9-tc "+name, graph.Split(g, 0),
			func(m *updown.Machine, dg *graph.DeviceGraph) (*tc.App, error) {
				return tc.New(m, dg, tc.Config{Combine: opt.Combine})
			},
			func(app *tc.App, m *updown.Machine) (Row, error) {
				if opt.Validate && app.Total() != want {
					return Row{}, fmt.Errorf("total %d, baseline %d", app.Total(), want)
				}
				return rateRow(m, app.Elapsed(), float64(app.Total()), 1e6), nil
			}, fmt.Sprintf("triangle totals validated against host baseline (%d triangles)", want/3))
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

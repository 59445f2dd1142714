package harness

import (
	"fmt"
	"io"
	"time"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// ChaosOptions configures the fault-injection resilience sweep: one BFS
// workload run at increasing message-drop rates with the resilient
// shuffle, validating that application results never change and measuring
// what the recovery protocol costs.
type ChaosOptions struct {
	// Scale is log2 of the vertex count.
	Scale int
	// Nodes is the application node count. When FailStop is set, one
	// extra spare node is added to the machine and fail-stopped mid-run —
	// the application's lanes and data stay on the first Nodes nodes, so
	// losing the spare must not change results.
	Nodes int
	// DropRates is the sweep axis; a leading 0 row is forced so every
	// faulted row validates against the fault-free result.
	DropRates []float64
	// DupProb and DelayProb/DelayCycles apply on every faulted row.
	DupProb     float64
	DelayProb   float64
	DelayCycles arch.Cycles
	// Seed drives the graph generator, FaultSeed the fault verdicts.
	Seed      uint64
	FaultSeed uint64
	// Shards is the simulator host parallelism (0 = auto).
	Shards int
	// FailStop adds a spare node and kills it mid-run on faulted rows.
	FailStop bool
	// CritPath enables causal tracing and fills the crit% column.
	CritPath bool
	// MaxTime bounds simulated cycles per row.
	MaxTime arch.Cycles
	// Progress, when non-nil, receives one line before and after every
	// row's run.
	Progress io.Writer
}

func (o *ChaosOptions) defaults() {
	if o.Scale == 0 {
		o.Scale = 12
	}
	if o.Nodes == 0 {
		o.Nodes = 2
	}
	if len(o.DropRates) == 0 {
		o.DropRates = []float64{0.01, 0.02, 0.05, 0.10}
	}
	if o.DupProb == 0 {
		o.DupProb = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	if o.MaxTime == 0 {
		o.MaxTime = 1 << 44
	}
}

// ChaosRow is one fault rate's measurement.
type ChaosRow struct {
	// DropRate is the per-message drop probability of this row.
	DropRate float64
	// Cycles is the simulated duration of the measured region.
	Cycles arch.Cycles
	// Goodput is useful work per simulated second: first-delivery
	// traversed edges over elapsed time (GTEPS). Retransmissions and
	// duplicates consume fabric bandwidth but never count.
	Goodput float64
	// Recovery is the extra makespan versus the fault-free row — the
	// latency cost of detecting and repairing the injected faults.
	Recovery arch.Cycles
	// Fault-injection counters for the row.
	Dropped, Dupped, DeadLetters int64
	// Protocol counters: retransmissions, tuples rejected by the dedup
	// window, straggler re-kick rounds.
	Retries, DupDrops, Rekicks int64
	// CritPct is the causal critical-path fraction (0 when not traced).
	CritPct float64
}

// ChaosTable is the chaos sweep's result: goodput and recovery latency
// versus fault rate, every row validated bit-exact against row zero.
type ChaosTable struct {
	Workload string
	Rows     []ChaosRow
	Notes    []string
}

// chaosColumns lists the chaos table's columns; crit% is shown when any
// row was traced.
var chaosColumns = []column[ChaosRow]{
	{"drop", "", -10, ".3f", func(r *ChaosRow) any { return r.DropRate }, nil},
	{"cycles", "", 14, "d", func(r *ChaosRow) any { return r.Cycles }, nil},
	{"goodput-GTEPS", "goodput GTEPS", 14, ".4f", func(r *ChaosRow) any { return r.Goodput }, nil},
	{"recovery", "", 12, "d", func(r *ChaosRow) any { return r.Recovery }, nil},
	{"dropped", "", 10, "d", func(r *ChaosRow) any { return r.Dropped }, nil},
	{"dupped", "", 10, "d", func(r *ChaosRow) any { return r.Dupped }, nil},
	{"retries", "", 10, "d", func(r *ChaosRow) any { return r.Retries }, nil},
	{"dup-drops", "", 10, "d", func(r *ChaosRow) any { return r.DupDrops }, nil},
	{"rekicks", "", 10, "d", func(r *ChaosRow) any { return r.Rekicks }, nil},
	{"crit%", "", 8, ".2f", func(r *ChaosRow) any { return 100 * r.CritPct },
		func(r *ChaosRow) bool { return r.CritPct != 0 }},
}

const chaosTitle = "Chaos sweep: resilient BFS under message faults — "

// Format renders the table as aligned text.
func (t *ChaosTable) Format() string {
	return formatText(chaosTitle+t.Workload, chaosColumns, t.Rows, t.Notes)
}

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *ChaosTable) Markdown() string {
	return formatMarkdown(chaosTitle+t.Workload, chaosColumns, t.Rows, t.Notes)
}

// ChaosBFS runs the chaos sweep: BFS with the resilient shuffle at every
// requested drop rate (plus a mandatory fault-free row), asserting that
// distances, round count and traversed-edge count are identical to the
// fault-free run at every rate, and reporting goodput, recovery latency
// and protocol-counter columns.
func ChaosBFS(opt ChaosOptions) (*ChaosTable, error) {
	opt.defaults()
	g, err := graph.Generate("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	split := graph.Split(g, 256)
	const root = 28

	machNodes := opt.Nodes
	if opt.FailStop {
		machNodes++ // the spare that dies
	}
	ar := arch.DefaultMachine(machNodes)
	appLanes := kvmsr.LaneSet{First: 0, Count: opt.Nodes * ar.LanesPerNode()}

	tb := &ChaosTable{
		Workload: fmt.Sprintf("rmat s%d (%d vertices, %d edges, root %d), %d nodes, dup=%.3g",
			opt.Scale, g.N, g.NumEdges(), root, opt.Nodes, opt.DupProb),
	}

	type result struct {
		dist      []uint64
		rounds    int
		traversed uint64
	}
	var golden *result

	rates := append([]float64{0}, opt.DropRates...)
	for _, rate := range rates {
		var plan *fault.Plan
		if rate > 0 {
			plan = &fault.Plan{Seed: opt.FaultSeed, Rules: []fault.MsgRule{{
				DropProb: rate, DupProb: opt.DupProb,
				DelayProb: opt.DelayProb, DelayCycles: opt.DelayCycles,
				SrcNode: fault.AnyNode, DstNode: fault.AnyNode,
			}}}
			if opt.FailStop {
				// Kill the spare once the fault-free run would be halfway
				// done: protocol traffic is in full flight at that point.
				plan.FailStops = []fault.FailStop{{Node: machNodes - 1, At: tb.Rows[0].Cycles / 2}}
			}
		}
		m, err := updown.New(updown.Config{
			Arch: &ar, Shards: opt.Shards, MaxTime: opt.MaxTime,
			Fault: plan, Resilience: &kvmsr.Resilience{},
			Trace: traceConfig(opt.CritPath),
		})
		if err != nil {
			return nil, err
		}
		dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(opt.Nodes))
		if err != nil {
			return nil, err
		}
		app, err := bfs.New(m, dg, bfs.Config{Root: root, Lanes: appLanes})
		if err != nil {
			return nil, err
		}
		app.InitValues()
		progressf(opt.Progress, "chaos-bfs drop=%.3g: running", rate)
		wall := time.Now()
		stats, err := app.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos bfs drop=%.3g: %w", rate, err)
		}
		progressf(opt.Progress, "chaos-bfs drop=%.3g: done in %.1fs", rate, time.Since(wall).Seconds())
		res := &result{dist: app.Distances(), rounds: app.Rounds, traversed: app.Traversed}
		if golden == nil {
			golden = res
		} else {
			if res.rounds != golden.rounds || res.traversed != golden.traversed {
				return nil, fmt.Errorf("chaos bfs drop=%.3g: rounds/traversed %d/%d, fault-free %d/%d",
					rate, res.rounds, res.traversed, golden.rounds, golden.traversed)
			}
			for v := range golden.dist {
				if res.dist[v] != golden.dist[v] {
					return nil, fmt.Errorf("chaos bfs drop=%.3g: distance[%d] = %d, fault-free %d",
						rate, v, res.dist[v], golden.dist[v])
				}
			}
		}
		if out := app.Outstanding(); out != 0 {
			return nil, fmt.Errorf("chaos bfs drop=%.3g: %d emits unacked after quiescence", rate, out)
		}
		rt := app.ResilienceTotals()
		row := ChaosRow{
			DropRate:    rate,
			Cycles:      app.Elapsed(),
			Goodput:     float64(app.Traversed) / m.Seconds(app.Elapsed()) / 1e9,
			Dropped:     stats.Faults.Dropped,
			Dupped:      stats.Faults.Dupped,
			DeadLetters: stats.Faults.DeadLetters,
			Retries:     rt.Retries,
			DupDrops:    rt.DupDrops,
			Rekicks:     rt.Rekicks,
		}
		if len(tb.Rows) > 0 {
			row.Recovery = row.Cycles - tb.Rows[0].Cycles
		}
		row.CritPct = critPct(m)
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"distances, rounds and traversed edges bit-identical to the fault-free row at every rate")
	if opt.FailStop {
		tb.Notes = append(tb.Notes,
			fmt.Sprintf("faulted rows also fail-stop spare node %d mid-run", machNodes-1))
	}
	return tb, nil
}

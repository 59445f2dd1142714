package harness

import (
	"fmt"
	"io"
	"math"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/tc"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
)

// ChaosRepOptions configures the replicated-memory chaos run: each
// workload runs once fault-free and once with a data-carrying node
// fail-stopped mid-run, on a machine whose global memory uses k-way
// replicated placement. The faulted run must complete with output
// matching the fault-free run — the replicas absorb the loss — and the
// sweep reports what the failover and backfill cost.
//
// Topology: four data nodes carry every allocation (the largest
// power-of-two span), application lanes run on the first two, node 3 is
// the victim — it serves DRAM but hosts no application lane, so killing
// it strands replicated data and nothing else — and node 4 is a spare
// that holds no data until backfill.
type ChaosRepOptions struct {
	// Scale is log2 of the vertex count.
	Scale int
	// Rep is the replication factor k (>= 2).
	Rep int
	// Shards is the simulator host parallelism (0 = auto).
	Shards int
	// Seed drives the graph generator.
	Seed uint64
	// Spare backfills the victim's data onto the spare node instead of
	// healing the victim in place.
	Spare bool
	// Apps selects workloads from bfs, pagerank, tc (default all three).
	Apps []string
	// MaxTime bounds simulated cycles per run.
	MaxTime arch.Cycles
	// Progress, when non-nil, receives one line before and after every
	// run (each workload runs twice: clean, then faulted).
	Progress io.Writer
}

func (o *ChaosRepOptions) defaults() {
	if o.Scale == 0 {
		o.Scale = 10
	}
	if o.Rep == 0 {
		o.Rep = 2
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Apps) == 0 {
		o.Apps = []string{"bfs", "pagerank", "tc"}
	}
	if o.MaxTime == 0 {
		o.MaxTime = 1 << 44
	}
}

// Fixed topology of the replicated chaos run (see ChaosRepOptions).
const (
	chaosRepDataNodes = 4
	chaosRepAppNodes  = 2
	chaosRepVictim    = 3
	chaosRepSpare     = 4
	chaosRepMachNodes = 5
)

// ChaosRepRow is one workload's clean-versus-faulted measurement.
type ChaosRepRow struct {
	App string
	// CleanCycles and FaultCycles are the two runs' makespans; TaxPct is
	// the relative slowdown the failover imposed.
	CleanCycles, FaultCycles arch.Cycles
	TaxPct                   float64
	// FailStopAt is when the victim died (half the clean makespan).
	FailStopAt arch.Cycles
	// Failovers counts in-flight DRAM messages rerouted by the engine
	// after the victim died; FallbackReads counts read words served by a
	// non-primary replica; DeadLetters must be zero (no message, and so
	// no data, was lost).
	Failovers, FallbackReads, DeadLetters int64
	// Hints and HintWords are the missed writes queued for the victim;
	// RepairedWords is what anti-entropy still had to copy after the
	// hints drained (zero for write-once or integer data healed in
	// place).
	Hints, HintWords int
	RepairedWords    uint64
	// Repl is the faulted run's replication summary as read back from the
	// metrics profile (fo=failovers fb=fallback-reads hq=hints-queued) —
	// the same counters the direct columns carry, but routed through
	// Profile/Summarize, so the table doubles as a cross-check of that
	// plumbing.
	Repl string
	// Match describes how the faulted output compared to fault-free.
	Match string
}

// ChaosRepTable is the replicated chaos run's result.
type ChaosRepTable struct {
	Workload string
	Rows     []ChaosRepRow
	Notes    []string
}

// chaosRepColumns lists the replicated chaos table's columns.
var chaosRepColumns = []column[ChaosRepRow]{
	{"app", "", -10, "s", func(r *ChaosRepRow) any { return r.App }, nil},
	{"clean-cyc", "clean cyc", 12, "d", func(r *ChaosRepRow) any { return r.CleanCycles }, nil},
	{"fault-cyc", "fault cyc", 12, "d", func(r *ChaosRepRow) any { return r.FaultCycles }, nil},
	{"tax%", "", 8, ".2f", func(r *ChaosRepRow) any { return r.TaxPct }, nil},
	{"failstop@", "", 12, "d", func(r *ChaosRepRow) any { return r.FailStopAt }, nil},
	{"failover", "failovers", 9, "d", func(r *ChaosRepRow) any { return r.Failovers }, nil},
	{"fallback", "fallback reads", 10, "d", func(r *ChaosRepRow) any { return r.FallbackReads }, nil},
	{"deadltr", "dead letters", 8, "d", func(r *ChaosRepRow) any { return r.DeadLetters }, nil},
	{"hints", "", 7, "d", func(r *ChaosRepRow) any { return r.Hints }, nil},
	{"hint-words", "hint words", 10, "d", func(r *ChaosRepRow) any { return r.HintWords }, nil},
	{"repaired", "", 9, "d", func(r *ChaosRepRow) any { return r.RepairedWords }, nil},
	{"repl", "", -22, "s", func(r *ChaosRepRow) any { return r.Repl }, nil},
	{"match", "", 0, "s", func(r *ChaosRepRow) any { return r.Match }, nil},
}

const chaosRepTitle = "Replicated-memory chaos: mid-run fail-stop of a data node — "

// Format renders the table as aligned text.
func (t *ChaosRepTable) Format() string {
	return formatText(chaosRepTitle+t.Workload, chaosRepColumns, t.Rows, t.Notes)
}

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *ChaosRepTable) Markdown() string {
	return formatMarkdown(chaosRepTitle+t.Workload, chaosRepColumns, t.Rows, t.Notes)
}

// chaosRepOutcome is what one run of one workload produced.
type chaosRepOutcome struct {
	m       *updown.Machine
	cycles  arch.Cycles
	stats   updown.Stats
	distU64 []uint64  // bfs distances
	ranks   []float64 // pagerank values
	total   uint64    // tc wedge-closure total
}

// chaosRepRun builds a machine and runs one workload over g on the fixed
// replicated chaos topology. failAt == 0 means a fault-free run.
func chaosRepRun(opt ChaosRepOptions, g *graph.Graph, app string, failAt arch.Cycles) (*chaosRepOutcome, error) {
	ar := arch.DefaultMachine(chaosRepMachNodes)
	var plan *fault.Plan
	if failAt > 0 {
		plan = &fault.Plan{Seed: 1, FailStops: []fault.FailStop{{Node: chaosRepVictim, At: failAt}}}
	}
	// The metrics recorder rides along so the run's profile carries the
	// replication counters (repl: line / Summary fields) the table's repl
	// column is read from.
	m, err := updown.New(updown.Config{
		Arch: &ar, Shards: opt.Shards, MaxTime: opt.MaxTime,
		Fault: plan, Replication: opt.Rep, Resilience: &kvmsr.Resilience{},
		Metrics: &metrics.Options{},
	})
	if err != nil {
		return nil, err
	}
	appLanes := kvmsr.LaneSet{First: 0, Count: chaosRepAppNodes * ar.LanesPerNode()}
	// 4 KiB blocks (not the 32 KiB default) so chaos-scale graphs still
	// stripe across all four data nodes — the victim must carry data.
	pl := graph.Placement{FirstNode: 0, NRNodes: chaosRepDataNodes, BlockBytes: 4 << 10}
	out := &chaosRepOutcome{m: m}
	switch app {
	case "bfs":
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 256), pl)
		if err != nil {
			return nil, err
		}
		a, err := bfs.New(m, dg, bfs.Config{Root: 28, Lanes: appLanes})
		if err != nil {
			return nil, err
		}
		a.InitValues()
		if out.stats, err = a.Run(); err != nil {
			return nil, err
		}
		out.distU64, out.cycles = a.Distances(), a.Elapsed()
	case "pagerank":
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 256), pl)
		if err != nil {
			return nil, err
		}
		a, err := pagerank.New(m, dg, pagerank.Config{Iterations: 1, Lanes: appLanes})
		if err != nil {
			return nil, err
		}
		a.InitValues()
		if out.stats, err = a.Run(); err != nil {
			return nil, err
		}
		out.ranks, out.cycles = a.Values(), a.Elapsed()
	case "tc":
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 0), pl)
		if err != nil {
			return nil, err
		}
		a, err := tc.New(m, dg, tc.Config{Lanes: appLanes})
		if err != nil {
			return nil, err
		}
		if out.stats, err = a.Run(); err != nil {
			return nil, err
		}
		out.total, out.cycles = a.Total(), a.Elapsed()
	default:
		return nil, fmt.Errorf("chaosrep: unknown app %q", app)
	}
	return out, nil
}

// chaosRepMatch compares a faulted run's output against the fault-free
// golden, returning a human-readable verdict or an error on mismatch.
// BFS distances and TC totals must be bit-identical (idempotent-min and
// integer-sum state is insensitive to delivery order); PageRank's float
// sums depend on arrival order, which the failover's extra hop shifts,
// so ranks are compared to a tight relative epsilon and reported
// bit-exact when they happen to agree.
func chaosRepMatch(app string, clean, faulted *chaosRepOutcome) (string, error) {
	switch app {
	case "bfs":
		for v := range clean.distU64 {
			if faulted.distU64[v] != clean.distU64[v] {
				return "", fmt.Errorf("bfs: distance[%d] = %d, fault-free %d", v, faulted.distU64[v], clean.distU64[v])
			}
		}
		return "bit-exact", nil
	case "tc":
		if faulted.total != clean.total {
			return "", fmt.Errorf("tc: total = %d, fault-free %d", faulted.total, clean.total)
		}
		return "bit-exact", nil
	case "pagerank":
		const eps = 1e-9
		exact := true
		for v := range clean.ranks {
			c, f := clean.ranks[v], faulted.ranks[v]
			if c != f {
				exact = false
				if d := math.Abs(c - f); d > eps*math.Max(math.Abs(c), 1) {
					return "", fmt.Errorf("pagerank: rank[%d] = %g, fault-free %g (rel %g)", v, f, c, d/math.Max(math.Abs(c), 1))
				}
			}
		}
		if exact {
			return "bit-exact", nil
		}
		return fmt.Sprintf("rel<=%.0e", eps), nil
	}
	return "", fmt.Errorf("chaosrep: unknown app %q", app)
}

// ChaosReplicated runs each selected workload fault-free and with the
// victim node fail-stopped halfway through, asserting correct output and
// zero data loss, then backfills the victim (in place, or onto the spare
// node) and verifies the replicas converge.
func ChaosReplicated(opt ChaosRepOptions) (*ChaosRepTable, error) {
	opt.defaults()
	if opt.Rep < 2 {
		return nil, fmt.Errorf("chaosrep: replication factor %d, need >= 2 to survive a fail-stop", opt.Rep)
	}
	g, err := graph.Generate("rmat", opt.Scale, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	heal := "in place"
	if opt.Spare {
		heal = fmt.Sprintf("onto spare node %d", chaosRepSpare)
	}
	tb := &ChaosRepTable{
		Workload: fmt.Sprintf("rmat s%d, k=%d, %d data nodes, lanes on %d, victim node %d, healed %s",
			opt.Scale, opt.Rep, chaosRepDataNodes, chaosRepAppNodes, chaosRepVictim, heal),
	}
	for _, app := range opt.Apps {
		progressf(opt.Progress, "chaosrep %s: clean run", app)
		clean, err := chaosRepRun(opt, g, app, 0)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s clean: %w", app, err)
		}
		failAt := clean.cycles / 2
		progressf(opt.Progress, "chaosrep %s: faulted run (fail-stop node %d at cycle %d)", app, chaosRepVictim, failAt)
		faulted, err := chaosRepRun(opt, g, app, failAt)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s failstop@%d: %w", app, failAt, err)
		}
		match, err := chaosRepMatch(app, clean, faulted)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s failstop@%d: %w", app, failAt, err)
		}
		if dl := faulted.stats.Faults.DeadLetters; dl != 0 {
			return nil, fmt.Errorf("chaosrep %s: %d dead-lettered messages — data was lost", app, dl)
		}
		var fallback int64
		for _, c := range faulted.m.Ctrls {
			fallback += c.FallbackReads
		}
		// The same counters, read back through the metrics profile: the
		// recorder observed them when Machine.Run finished, so the summary
		// must agree with the direct controller sums above.
		ps := faulted.m.Metrics.Profile().Summarize(faulted.m.Arch)
		if ps.FallbackReads != fallback {
			return nil, fmt.Errorf("chaosrep %s: profile fallback-reads %d != controller sum %d", app, ps.FallbackReads, fallback)
		}
		repl := fmt.Sprintf("fo=%d fb=%d hq=%d", ps.Failovers, ps.FallbackReads, ps.HintsQueued)
		spare := -1
		if opt.Spare {
			spare = chaosRepSpare
		}
		bf, err := faulted.m.Backfill(chaosRepVictim, spare)
		if err != nil {
			return nil, fmt.Errorf("chaosrep %s backfill: %w", app, err)
		}
		// Whichever node now holds the victim's stripes, a second
		// anti-entropy pass must find nothing left to fix.
		target := chaosRepVictim
		if opt.Spare {
			target = chaosRepSpare
		}
		if w := faulted.m.GAS.Repair(target); w != 0 {
			return nil, fmt.Errorf("chaosrep %s: %d words still divergent after backfill", app, w)
		}
		row := ChaosRepRow{
			App: app, CleanCycles: clean.cycles, FaultCycles: faulted.cycles,
			TaxPct:      100 * (float64(faulted.cycles)/float64(clean.cycles) - 1),
			FailStopAt:  failAt,
			Failovers:   faulted.stats.Faults.Failovers,
			DeadLetters: faulted.stats.Faults.DeadLetters, FallbackReads: fallback,
			Hints: bf.Hints, HintWords: bf.HintWords, RepairedWords: bf.RepairedWords,
			Repl:  repl,
			Match: match,
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"faulted outputs validated against the fault-free run; dead-letters asserted zero (no data loss)",
		"repaired = words anti-entropy copied after hint drain; a second pass always finds zero")
	return tb, nil
}

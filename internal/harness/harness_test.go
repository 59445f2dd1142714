package harness

import (
	"errors"
	"strings"
	"testing"

	"updown/internal/graph"
)

// The figure runners at miniature scale: every experiment must complete,
// validate, and produce plausible tables. These are the end-to-end
// integration tests of the whole stack.

func TestFig9PageRankSmoke(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"rmat"},
		Validate: true, SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("unexpected shape: %+v", tables)
	}
	if tables[0].Rows[0].Speedup != 1.0 {
		t.Fatal("first row speedup must be 1")
	}
	if tables[0].Rows[0].Metric <= 0 {
		t.Fatal("metric missing")
	}
}

func TestFig9BFSSmoke(t *testing.T) {
	tables, err := Fig9BFS(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"soc-livej"},
		Validate: true, SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatal("row count")
	}
}

func TestFig9TCSmoke(t *testing.T) {
	tables, err := Fig9TC(Fig9Options{
		Scale: 8, Nodes: []int{1, 2}, Presets: []string{"com-orkut"},
		Validate: true, SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatal("row count")
	}
}

func TestFig10Smoke(t *testing.T) {
	tables, err := Fig10Ingestion(Fig10Options{
		BaseRecords: 300, Multipliers: []float64{1}, Nodes: []int{1, 2},
		SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatal("shape")
	}
}

func TestFig11Smoke(t *testing.T) {
	tb, err := Fig11PartialMatch(Fig11Options{
		Records: 120, LaneCounts: []int{64, 512}, SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("shape")
	}
	if tb.Rows[1].Metric >= tb.Rows[0].Metric {
		t.Logf("warning: latency did not improve at this tiny scale: %v vs %v",
			tb.Rows[1].Metric, tb.Rows[0].Metric)
	}
}

func TestFig12Smoke(t *testing.T) {
	// The placement sweep only shows its effect when the graph traffic is
	// memory-bound: a larger graph and the reduced-bandwidth operating
	// point (see Fig12Options.DRAMBytesPerCycle).
	tables, err := Fig12Placement(Fig12Options{
		ComputeNodes: 4, MemNodes: []int{1, 4}, Scale: 13,
		DRAMBytesPerCycle: 100, SweepOptions: SweepOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatal("want PR and BFS tables")
	}
	// Wider striping must help when memory-bound.
	pr := tables[0]
	if pr.Rows[1].Cycles >= pr.Rows[0].Cycles {
		t.Fatalf("PR with 4 memory nodes (%d cycles) not faster than 1 (%d cycles)",
			pr.Rows[1].Cycles, pr.Rows[0].Cycles)
	}
}

// TestTableFormatting pins every renderer byte for byte, Format and
// Markdown: Table with each optional column group (shuffle, replication,
// profile, crit) off and on, ChaosTable with and without crit%, and
// ChaosRepTable. A group is shown when any row carries it.
func TestTableFormatting(t *testing.T) {
	golden := map[string][2]string{
		"table/plain": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s
1                    123456     0.000062       1.00              3.5       12.250
2 lanes               61728     0.000031       2.00            7.125       11.500
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s |
|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 |

*note: first note*

*note: second note*

`},
		"table/shuffle": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s         msgs  tup/msg
1                    123456     0.000062       1.00              3.5       12.250          100     2.50
2 lanes               61728     0.000031       2.00            7.125       11.500          200     2.50
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | msgs | tup/msg |
|---|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 100 | 2.50 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 200 | 2.50 |

*note: first note*

*note: second note*

`},
		"table/shuffle-one-row": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s         msgs  tup/msg
1                    123456     0.000062       1.00              3.5       12.250            0     0.00
2 lanes               61728     0.000031       2.00            7.125       11.500            0     0.00
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | msgs | tup/msg |
|---|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 0 | 0.00 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 0 | 0.00 |

*note: first note*

*note: second note*

`},
		"table/replication": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s     tax%    dramx
1                    123456     0.000062       1.00              3.5       12.250      0.0     1.00
2 lanes               61728     0.000031       2.00            7.125       11.500     12.5     1.75
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | tax% | dramx |
|---|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 0.0 | 1.00 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 12.5 | 1.75 |

*note: first note*

*note: second note*

`},
		"table/profile": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s    imbal    dram%     inj%
1                    123456     0.000062       1.00              3.5       12.250     1.50     25.0     12.5
2 lanes               61728     0.000031       2.00            7.125       11.500     1.50     50.0     12.5
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | imbal | dram% | inj% |
|---|---|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 1.50 | 25.0 | 12.5 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 1.50 | 50.0 | 12.5 |

*note: first note*

*note: second note*

`},
		"table/crit": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s    crit%
1                    123456     0.000062       1.00              3.5       12.250    43.21
2 lanes               61728     0.000031       2.00            7.125       11.500     0.00
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | crit% |
|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 43.21 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 0.00 |

*note: first note*

*note: second note*

`},
		"table/all": {
			`Figure T — rmat s9
config               cycles      seconds    speedup             GUPS   host-Mev/s         msgs  tup/msg     tax%    dramx    imbal    dram%     inj%    crit%
1                    123456     0.000062       1.00              3.5       12.250           40     2.00      3.0     1.50     2.00     50.0     75.0    90.00
2 lanes               61728     0.000031       2.00            7.125       11.500           40     2.00      3.0     1.50     2.00     50.0     75.0    90.00
  note: first note
  note: second note
`,
			`**Figure T — rmat s9**

| config | cycles | seconds | speedup | GUPS | host-Mev/s | msgs | tup/msg | tax% | dramx | imbal | dram% | inj% | crit% |
|---|---|---|---|---|---|---|---|---|---|---|---|---|---|
| 1 | 123456 | 0.000062 | 1.00 | 3.5 | 12.250 | 40 | 2.00 | 3.0 | 1.50 | 2.00 | 50.0 | 75.0 | 90.00 |
| 2 lanes | 61728 | 0.000031 | 2.00 | 7.125 | 11.500 | 40 | 2.00 | 3.0 | 1.50 | 2.00 | 50.0 | 75.0 | 90.00 |

*note: first note*

*note: second note*

`},
		"table/empty": {
			`Figure E — none
config               cycles      seconds    speedup           MRec/s   host-Mev/s
`,
			`**Figure E — none**

| config | cycles | seconds | speedup | MRec/s | host-Mev/s |
|---|---|---|---|---|---|

`},
		"chaos/plain": {
			`Chaos sweep: resilient BFS under message faults — rmat s8
drop               cycles  goodput-GTEPS     recovery    dropped     dupped    retries  dup-drops    rekicks
0.000                5000         1.2500            0          0          0          0          0          0
0.050                6500         0.8750         1500         12          3         14          2          1
  note: bit-identical
`,
			`**Chaos sweep: resilient BFS under message faults — rmat s8**

| drop | cycles | goodput GTEPS | recovery | dropped | dupped | retries | dup-drops | rekicks |
|---|---|---|---|---|---|---|---|---|
| 0.000 | 5000 | 1.2500 | 0 | 0 | 0 | 0 | 0 | 0 |
| 0.050 | 6500 | 0.8750 | 1500 | 12 | 3 | 14 | 2 | 1 |

*note: bit-identical*
`},
		"chaos/crit": {
			`Chaos sweep: resilient BFS under message faults — rmat s8
drop               cycles  goodput-GTEPS     recovery    dropped     dupped    retries  dup-drops    rekicks    crit%
0.000                5000         1.2500            0          0          0          0          0          0    87.50
0.050                6500         0.8750         1500         12          3         14          2          1     0.00
  note: bit-identical
`,
			`**Chaos sweep: resilient BFS under message faults — rmat s8**

| drop | cycles | goodput GTEPS | recovery | dropped | dupped | retries | dup-drops | rekicks | crit% |
|---|---|---|---|---|---|---|---|---|---|
| 0.000 | 5000 | 1.2500 | 0 | 0 | 0 | 0 | 0 | 0 | 87.50 |
| 0.050 | 6500 | 0.8750 | 1500 | 12 | 3 | 14 | 2 | 1 | 0.00 |

*note: bit-identical*
`},
		"chaosrep": {
			`Replicated-memory chaos: mid-run fail-stop of a data node — rmat s8, k=2
app           clean-cyc    fault-cyc     tax%    failstop@  failover   fallback  deadltr   hints hint-words  repaired repl                   match
bfs                9000         9900    10.00         4500         7         21        0       3         48         0 fo=7 fb=21 hq=3        bit-exact
pagerank          12000        12600     5.00         6000         2          5        0       1          8         4 fo=2 fb=5 hq=1         rel<=1e-09
  note: validated
  note: repaired = words
`,
			`**Replicated-memory chaos: mid-run fail-stop of a data node — rmat s8, k=2**

| app | clean cyc | fault cyc | tax% | failstop@ | failovers | fallback reads | dead letters | hints | hint words | repaired | repl | match |
|---|---|---|---|---|---|---|---|---|---|---|---|---|
| bfs | 9000 | 9900 | 10.00 | 4500 | 7 | 21 | 0 | 3 | 48 | 0 | fo=7 fb=21 hq=3 | bit-exact |
| pagerank | 12000 | 12600 | 5.00 | 6000 | 2 | 5 | 0 | 1 | 8 | 4 | fo=2 fb=5 hq=1 | rel<=1e-09 |

*note: validated*

*note: repaired = words*
`},
	}
	for _, tc := range renderCases() {
		want, ok := golden[tc.name]
		if !ok {
			t.Fatalf("%s: no golden output", tc.name)
		}
		if got := tc.tb.Format(); got != want[0] {
			t.Errorf("%s: Format =\n%s\nwant\n%s", tc.name, got, want[0])
		}
		if got := tc.tb.Markdown(); got != want[1] {
			t.Errorf("%s: Markdown =\n%s\nwant\n%s", tc.name, got, want[1])
		}
	}
}

// renderCases are the inputs of the byte-exact renderer test: every
// optional column group of Table off and on, ChaosTable with and without
// crit%, and ChaosRepTable.
func renderCases() []struct {
	name string
	tb   interface {
		Format() string
		Markdown() string
	}
} {
	rows := func(mod func(i int, r *Row)) []Row {
		rs := []Row{
			{Label: "1", Cycles: 123456, Seconds: 6.1728e-05, Speedup: 1, Metric: 3.5, HostMevS: 12.25},
			{Label: "2 lanes", Cycles: 61728, Seconds: 3.0864e-05, Speedup: 2, Metric: 7.125, HostMevS: 11.5},
		}
		for i := range rs {
			if mod != nil {
				mod(i, &rs[i])
			}
		}
		return rs
	}
	table := func(mod func(i int, r *Row)) *Table {
		return &Table{Title: "Figure T", Workload: "rmat s9", MetricName: "GUPS",
			Rows: rows(mod), Notes: []string{"first note", "second note"}}
	}
	chaosRows := func(crit float64) []ChaosRow {
		return []ChaosRow{
			{DropRate: 0, Cycles: 5000, Goodput: 1.25, CritPct: crit},
			{DropRate: 0.05, Cycles: 6500, Goodput: 0.875, Recovery: 1500, Dropped: 12,
				Dupped: 3, DeadLetters: 0, Retries: 14, DupDrops: 2, Rekicks: 1},
		}
	}
	type c = struct {
		name string
		tb   interface {
			Format() string
			Markdown() string
		}
	}
	return []c{
		{"table/plain", table(nil)},
		{"table/shuffle", table(func(i int, r *Row) { r.Msgs, r.Tuples = int64(100*(i+1)), int64(250*(i+1)) })},
		{"table/shuffle-one-row", table(func(i int, r *Row) {
			if i == 1 {
				r.Tuples = 9
			}
		})},
		{"table/replication", table(func(i int, r *Row) { r.TaxPct, r.DRAMx = float64(i)*12.5, 1+float64(i)*0.75 })},
		{"table/profile", table(func(i int, r *Row) { r.Imbalance, r.DRAMUtil, r.InjUtil = 1.5, 0.25*float64(i+1), 0.125 })},
		{"table/crit", table(func(i int, r *Row) {
			if i == 0 {
				r.CritPct = 0.4321
			}
		})},
		{"table/all", table(func(i int, r *Row) {
			r.Msgs, r.Tuples = 40, 80
			r.TaxPct, r.DRAMx = 3, 1.5
			r.Imbalance, r.DRAMUtil, r.InjUtil = 2, 0.5, 0.75
			r.CritPct = 0.9
		})},
		{"table/empty", &Table{Title: "Figure E", Workload: "none", MetricName: "MRec/s"}},
		{"chaos/plain", &ChaosTable{Workload: "rmat s8", Rows: chaosRows(0), Notes: []string{"bit-identical"}}},
		{"chaos/crit", &ChaosTable{Workload: "rmat s8", Rows: chaosRows(0.875), Notes: []string{"bit-identical"}}},
		{"chaosrep", &ChaosRepTable{Workload: "rmat s8, k=2", Rows: []ChaosRepRow{
			{App: "bfs", CleanCycles: 9000, FaultCycles: 9900, TaxPct: 10, FailStopAt: 4500,
				Failovers: 7, FallbackReads: 21, DeadLetters: 0, Hints: 3, HintWords: 48,
				RepairedWords: 0, Repl: "fo=7 fb=21 hq=3", Match: "bit-exact"},
			{App: "pagerank", CleanCycles: 12000, FaultCycles: 12600, TaxPct: 5, FailStopAt: 6000,
				Failovers: 2, FallbackReads: 5, Hints: 1, HintWords: 8, RepairedWords: 4,
				Repl: "fo=2 fb=5 hq=1", Match: "rel<=1e-09"},
		}, Notes: []string{"validated", "repaired = words"}}},
	}
}

func TestFillSpeedups(t *testing.T) {
	tb := &Table{Rows: []Row{{Cycles: 100}, {Cycles: 50}, {Cycles: 25}}}
	tb.FillSpeedups()
	if tb.Rows[0].Speedup != 1 || tb.Rows[1].Speedup != 2 || tb.Rows[2].Speedup != 4 {
		t.Fatalf("speedups %v", tb.Rows)
	}
}

func TestParseNodeList(t *testing.T) {
	tests := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"4, 1,2", []int{1, 2, 4}, true},
		{"8", []int{8}, true},
		{" 1 ,\t2 ", []int{1, 2}, true},     // whitespace trimmed
		{"1,,2,", []int{1, 2}, true},        // empty fields skipped
		{"4,1,4,2,1", []int{1, 2, 4}, true}, // duplicates removed
		{"", nil, false},
		{",,", nil, false},
		{"a,b", nil, false},
		{"8x", nil, false}, // Sscanf used to accept this as 8
		{"1 2", nil, false},
		{"2,3x4", nil, false},
		{"0", nil, false},
		{"-4", nil, false},
		{"4.5", nil, false},
		{"0x10", nil, false},
	}
	for _, tc := range tests {
		got, err := ParseNodeList(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseNodeList(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseNodeList(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseNodeList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseNodeList(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestTimeoutBecomesNote: a configuration that exceeds MaxTime must be
// recorded as a table note, not abort the sweep — the remaining rows (none
// of which can complete either at 100 cycles) still get their turn and the
// runner returns without error.
func TestTimeoutBecomesNote(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"rmat"},
		SweepOptions: SweepOptions{Shards: 1, MaxTime: 100},
	})
	if err != nil {
		t.Fatalf("sweep aborted on timeout: %v", err)
	}
	tb := tables[0]
	if len(tb.Rows) != 0 {
		t.Fatalf("expected no completed rows at MaxTime=100, got %d", len(tb.Rows))
	}
	if len(tb.Notes) != 2 {
		t.Fatalf("expected one note per timed-out configuration, got %v", tb.Notes)
	}
	for i, want := range []string{"nodes=1", "nodes=2"} {
		if !strings.Contains(tb.Notes[i], want) || !strings.Contains(tb.Notes[i], "MaxTime") {
			t.Errorf("note %d = %q, want it to name %s and the timeout", i, tb.Notes[i], want)
		}
	}
}

// TestProfiledSweepFillsUtilization: with Profile set, every completed row
// carries imbalance and utilization figures and the rendered tables grow
// the corresponding columns.
func TestProfiledSweepFillsUtilization(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{2}, Presets: []string{"rmat"},
		SweepOptions: SweepOptions{Shards: 1, Profile: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tables[0].Rows[0]
	if r.Imbalance < 1 {
		t.Errorf("imbalance = %v, want >= 1 (peak/mean)", r.Imbalance)
	}
	if r.DRAMUtil <= 0 || r.DRAMUtil > 1 {
		t.Errorf("DRAM utilization = %v, want (0, 1]", r.DRAMUtil)
	}
	if r.InjUtil < 0 || r.InjUtil > 1 {
		t.Errorf("injection utilization = %v, want [0, 1]", r.InjUtil)
	}
	txt := tables[0].Format()
	if !strings.Contains(txt, "imbal") || !strings.Contains(txt, "dram%") {
		t.Errorf("profiled table missing utilization columns:\n%s", txt)
	}
	md := tables[0].Markdown()
	if !strings.Contains(md, "imbal |") {
		t.Errorf("profiled markdown missing utilization columns:\n%s", md)
	}
}

func TestFigSchedSmoke(t *testing.T) {
	res, err := FigSched(FigSchedOptions{
		Nodes: 2, AccelsPerNode: 2, LanesPerAccel: 8,
		Scale: 7, Jobs: 6, Loads: []int64{4000}, Seed: 7,
		Shards: 2, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.DoneJobs+r.RejectedJobs != r.Jobs {
		t.Fatalf("done %d + rejected %d != submitted %d", r.DoneJobs, r.RejectedJobs, r.Jobs)
	}
	if r.DoneJobs == 0 || r.JobsPerSec <= 0 || r.P99Ms < r.P50Ms {
		t.Fatalf("implausible row: %+v", r)
	}
	if res.Verified != r.DoneJobs {
		t.Fatalf("verified %d of %d done jobs", res.Verified, r.DoneJobs)
	}
	if len(r.Tenants) == 0 {
		t.Fatal("tenant accounting missing")
	}
}

// TestNegativeScaleIsError: every graph-generating entry point rejects a
// negative scale with the graph builder's typed error instead of panicking
// on a negative shift.
func TestNegativeScaleIsError(t *testing.T) {
	one := SweepOptions{Shards: 1}
	cases := []struct {
		name string
		run  func() error
	}{
		{"Fig9PageRank", func() error {
			_, err := Fig9PageRank(Fig9Options{Scale: -1, Nodes: []int{1}, Presets: []string{"rmat"}, SweepOptions: one})
			return err
		}},
		{"Fig9BFS", func() error {
			_, err := Fig9BFS(Fig9Options{Scale: -1, Nodes: []int{1}, Presets: []string{"rmat"}, SweepOptions: one})
			return err
		}},
		{"Fig9TC", func() error {
			_, err := Fig9TC(Fig9Options{Scale: -1, Nodes: []int{1}, Presets: []string{"rmat"}, SweepOptions: one})
			return err
		}},
		{"Fig12Placement", func() error {
			_, err := Fig12Placement(Fig12Options{Scale: -1, ComputeNodes: 1, MemNodes: []int{1}, SweepOptions: one})
			return err
		}},
		{"ChaosBFS", func() error {
			_, err := ChaosBFS(ChaosOptions{Scale: -1, Nodes: 1, Shards: 1})
			return err
		}},
		{"ChaosReplicated", func() error {
			_, err := ChaosReplicated(ChaosRepOptions{Scale: -1, Rep: 2, Shards: 1})
			return err
		}},
		{"FigServe", func() error {
			_, err := FigServe(FigServeOptions{Scale: -1, Nodes: 1, Shards: 1})
			return err
		}},
		{"FigSched", func() error {
			_, err := FigSched(FigSchedOptions{Scale: -1, Nodes: 2, Shards: 1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			err := tc.run()
			var se *graph.ScaleError
			if !errors.As(err, &se) || se.Scale != -1 {
				t.Fatalf("err = %v, want *graph.ScaleError for scale -1", err)
			}
		})
	}
}

// TestPageRankIterations: a negative iteration count fails the sweep
// instead of reporting negative throughput, and zero runs (and reports)
// the one iteration that one does.
func TestPageRankIterations(t *testing.T) {
	run := func(iters int) ([]*Table, error) {
		return Fig9PageRank(Fig9Options{Scale: 8, Nodes: []int{1}, Presets: []string{"rmat"},
			Iterations: iters, Validate: true, SweepOptions: SweepOptions{Shards: 1}})
	}
	if _, err := run(-1); err == nil {
		t.Error("iterations -1 accepted")
	}
	one, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := zero[0].Rows[0], one[0].Rows[0]; a.Cycles != b.Cycles || a.Metric != b.Metric {
		t.Errorf("iterations 0: %d cycles %v GUPS, iterations 1: %d cycles %v GUPS", a.Cycles, a.Metric, b.Cycles, b.Metric)
	}
}

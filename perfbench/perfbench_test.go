package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"updown/internal/serve"
)

var workloads = []string{"pr_seq", "bfs_auto", "serve_mix"}

// lastResult parses the JSON result on the last line of the output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json that names workloads and metrics.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// The metrics BENCHMARK.json declares are exactly the ones the command
// reports, with the same units, and its workloads are the ones it runs.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloads[i])
		}
	}
}

// A tiny-scale run of every workload, untraced and traced, passes the
// gate and prints every named metric with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, want := range [][]metric{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w, "--tiny", "--seconds", "0", "--seed", "3",
				"--trace", []string{"0", "1"}[trace], "--spans", filepath.Join(t.TempDir(), "spans.json")}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w, trace, code, out.String(), errOut.String())
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: %+v", w, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.name, v, m.unit)
				}
				if !strings.Contains(out.String(), m.name) {
					t.Errorf("%s trace=%d: %s not printed", w, trace, m.name)
				}
			}
			if trace == 0 {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// Corrupting one answer or one batch output makes the run incorrect and
// the command exit nonzero.
func TestGateTrips(t *testing.T) {
	tampers := map[string]func(out any){
		"pr_seq":    func(out any) { out.([]float64)[0] += 1e-6 },
		"bfs_auto":  func(out any) { out.([]uint64)[5]++ },
		"serve_mix": func(out any) { out.([]serve.Query)[3].Result ^= 1 },
	}
	for _, w := range workloads {
		var out, errOut bytes.Buffer
		o := options{workload: w, seed: 3, tiny: true, tamper: tampers[w]}
		if code := execute(o, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit %d, want 1\n%s%s", w, code, out.String(), errOut.String())
		}
		res := lastResult(t, out.String())
		if res.Correct || res.Failed != 1 {
			t.Fatalf("%s: tampered run reported %+v", w, res)
		}
	}
}

// A repetition whose simulated cycles or events differ from the first
// one counts as failed.
func TestDeterminismGate(t *testing.T) {
	w := &workload{}
	w.checkDeterminism(&rep{simCycles: 10, events: 100})
	same := &rep{simCycles: 10, events: 100}
	w.checkDeterminism(same)
	moved := &rep{simCycles: 10, events: 101}
	w.checkDeterminism(moved)
	if same.failed != 0 || moved.failed != 1 || !moved.nondet {
		t.Fatalf("same %+v, moved %+v", same, moved)
	}
}

// The traced run's spans nest, parents cover their children, self time
// is never negative, and every query has wait and execution children.
func TestSpansNest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var out, errOut bytes.Buffer
	args := []string{"--workload", "serve_mix", "--tiny", "--seconds", "0", "--trace", "1", "--spans", path}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	for i, s := range selfTimes(spans) {
		if s < 0 {
			t.Fatalf("span %+v: self time %d", spans[i], s)
		}
	}
	kids := map[int][]string{}
	queries := 0
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s.Name)
		if strings.HasPrefix(s.Name, "serve.query.") {
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no query spans")
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.query.") &&
			strings.Join(kids[s.ID], ",") != "serve.wait,serve.exec" {
			t.Fatalf("query span %d children %v", s.ID, kids[s.ID])
		}
	}
}

// Self time subtracts the union of the children, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 10, End: 40},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 0, 20, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i+1, got[i], want[i])
		}
	}
	if err := checkNesting(spans); err == nil {
		t.Error("span 4 escapes its parent, want an error")
	}
}

// Every sample of a real CPU profile lands in exactly one bucket, so the
// shares sum to 100%.
func TestCPUSharesSumTo100(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	p, err := workloadParams("serve_mix", true)
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: "serve_mix", p: p, seed: 5}
	w.prepare()
	_, err = w.runRep(newRecorder(), false, false)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	buckets := map[string]int64{}
	if err := bucketProfile(prof.Bytes(), buckets); err != nil {
		t.Fatal(err)
	}
	shares, n := cpuShares(buckets)
	if n == 0 {
		t.Skip("profile caught no samples")
	}
	zr, err := gzip.NewReader(bytes.NewReader(prof.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range dp.samples {
		total += s.values[0]
	}
	if total != n {
		t.Fatalf("buckets hold %d samples, the profile %d", n, total)
	}
	sum := 0.0
	for b, s := range shares {
		sum += s
		if s < 0 {
			t.Errorf("bucket %s share %v", b, s)
		}
	}
	if sum < 100-1e-9 || sum > 100+1e-9 {
		t.Fatalf("shares sum to %v over %d samples: %v", sum, n, shares)
	}
	if len(shares) != len(cpuBuckets) {
		t.Fatalf("%d buckets, want %d", len(shares), len(cpuBuckets))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"updown/internal/sim.(*msgHeap).siftDown", "updown/internal/sim.(*shard).processWindow"}, "sim_eventq"},
		{[]string{"updown/internal/sim.(*barrier).await"}, "sim_sync"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime_sched"},
		{[]string{"runtime.mallocgc", "updown/internal/kvmsr.(*Invocation).emit"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, "runtime_gc"},
		{[]string{"runtime.memmove", "sort.Slice", "updown/internal/kvmsr.(*Invocation).emit"}, "kvmsr"},
		{[]string{"updown/internal/arch.Machine.NodeOf", "updown/internal/udweave.(*Ctx).Send"}, "udweave"},
		{[]string{"updown/internal/apps/bfs.(*PointBFS).mark"}, "apps"},
		{[]string{"updown/internal/telemetry.(*Publisher).Beat"}, "observers"},
		{[]string{"runtime.memmove"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%v: %s, want %s", c.stack, got, c.want)
		}
	}
}

// The open-loop stream offers exactly the mean rate and an exact half
// split of kinds, in ascending arrival order.
func TestServeStream(t *testing.T) {
	const n, gap = 101, 1000
	qs := serveStream(n, gap, 9, 64)
	kinds := [2]int{}
	for i, q := range qs {
		kinds[q.Kind]++
		if i > 0 && q.Arrive < qs[i-1].Arrive {
			t.Fatalf("arrival %d before %d", i, i-1)
		}
	}
	if kinds[0] != 51 || kinds[1] != 50 {
		t.Fatalf("kinds %v", kinds)
	}
	span := float64(qs[n-1].Arrive - qs[0].Arrive)
	if span < gap*(n-1)-1 || span > gap*(n-1)+1 {
		t.Fatalf("arrival span %v, want %d", span, gap*(n-1))
	}
}

// checkNesting reports the first span that starts before or ends after
// its parent, or whose clock differs from its parent's.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if p.Clock != s.Clock && p.Clock == clockSim {
			return fmt.Errorf("span %d %q: host span under sim span %d", s.ID, s.Name, p.ID)
		}
		if p.Clock == s.Clock && (s.Start < p.Start || s.End > p.End) {
			return fmt.Errorf("span %d %q [%d,%d] escapes parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

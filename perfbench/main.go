// Command perfbench is the repository benchmark. It runs one named
// workload on the public updown facade and app APIs, checks every output
// against a host reference, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, medians over the
// run's repetitions; with --trace 1 they are the per-layer ones, from
// traced repetitions that record spans, attach a telemetry publisher and
// take a CPU profile of the simulate phase. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"updown"
)

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced repetitions.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"mev_per_s", "Mev/s"},
	{"cpu_ns_per_event", "ns"},
	{"live_heap_mb", "MB"},
	{"sim_cycles", "cycles"},
}

// perLayer are the per-layer metrics of a traced run.
var perLayer = func() []metric {
	ms := []metric{
		{"graph.generate_s", "s"}, {"graph.build_s", "s"}, {"graph.split_s", "s"},
		{"updown.new_s", "s"}, {"gasmem.load_s", "s"}, {"gasmem.used_mb", "MB"},
		{"apps.build_s", "s"}, {"apps.readback_s", "s"},
		{"sim.run_s", "s"}, {"sim.events", "count"}, {"sim.sends", "count"},
		{"sim.windows", "count"}, {"sim.events_per_window", "count"}, {"sim.shards", "count"},
		{"sim.lane_util", "%"}, {"sim.checkpoint_s", "s"}, {"sim.restore_s", "s"},
		{"dram.reads", "count"}, {"dram.writes", "count"}, {"dram.bytes", "B"},
		{"kvmsr.shuffle_msgs", "count"}, {"kvmsr.shuffle_tuples", "count"}, {"kvmsr.tuples_per_msg", "count"},
		{"serve.qps", "1/s"}, {"serve.sojourn_p50_ms", "ms"}, {"serve.sojourn_p95_ms", "ms"},
		{"serve.bfs_p50_ms", "ms"}, {"serve.ppr_p50_ms", "ms"},
		{"serve.batches", "count"}, {"serve.fused_per_batch", "count"}, {"serve.shed", "count"},
		{"serve.wait_p50_ms", "ms"}, {"serve.wait_p95_ms", "ms"},
		{"serve.exec_p50_ms", "ms"}, {"serve.exec_p95_ms", "ms"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
		{"host.calib_s", "s"}, {"host.setup_s_raw", "s"}, {"host.mev_per_s_raw", "Mev/s"},
		{"host.cpu_ns_per_event_raw", "ns"},
	}
	for _, b := range cpuBuckets {
		ms = append(ms, metric{"cpu." + b, "%"})
	}
	return append(ms, metric{"trace.overhead_pct", "%"})
}()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string
	commit   string
	source   string
	tiny     bool
	tamper   func(out any)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit code: 0 when every
// output was correct, 1 when the correctness gate tripped, 2 on a usage
// or simulation error (no result printed).
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: pr_seq, bfs_auto or serve_mix")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time; repetitions start while they fit")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the run metadata")
	fs.StringVar(&o.source, "source-sha256", "unknown", "digest of the sources, recorded in the run metadata")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every input for a smoke run (numbers not comparable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs the benchmark, prints its result line and returns the exit
// code.
func execute(o options, stdout, stderr io.Writer) int {
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs the repetitions and reports. Repetitions start while the
// median repetition so far still fits in the measuring time; a run makes
// at least one (untraced) or one untraced and one traced (traced).
func bench(o options, out io.Writer) (*result, error) {
	p, err := workloadParams(o.workload, o.tiny)
	if err != nil {
		return nil, err
	}
	w := &workload{name: o.workload, p: p, seed: o.seed, tamper: o.tamper}
	w.prepare()
	rec := newRecorder()
	start := time.Now()

	var setups []float64
	for i := 0; i < p.SetupOnly; i++ {
		r, err := w.runRep(rec, false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupS)
	}
	var reps []*rep
	var durs []float64
	for {
		traced := o.trace == 1 && len(reps)%2 == 1
		t0 := time.Now()
		r, err := w.runRep(rec, traced, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		durs = append(durs, time.Since(t0).Seconds())
		minReps := 1 + o.trace
		if len(reps) >= minReps && time.Since(start).Seconds()+median(durs) > o.seconds {
			break
		}
	}

	// Set-up times are scaled like every host time: a repetition's by its
	// own calibration, an extra set-up's by the run's.
	var pooled []float64
	for _, r := range reps {
		pooled = append(pooled, r.calibSetup...)
	}
	for i := range setups {
		setups[i] *= calibRefS / median(pooled)
	}
	res := &result{Correct: true, Metrics: map[string]value{}}
	var untraced, traced []*rep
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
			setups = append(setups, r.setupS*r.setupScale())
		}
	}
	res.Correct = res.Failed == 0

	bw := bufio.NewWriter(out)
	defer bw.Flush()
	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "params": p, "trace": o.trace,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"shards": p.resolvedShards(), "go": runtime.Version(), "commit": o.commit,
		"source_sha256": o.source, "reps": len(untraced), "traced_reps": len(traced),
		"setup_reps": len(setups), "seconds": time.Since(start).Seconds(),
	}
	mb, _ := json.Marshal(meta)
	fmt.Fprintf(bw, "meta %s\n", mb)
	if o.workload == "bfs_auto" || o.workload == "serve_mix" {
		fmt.Fprintf(bw, "note: shards resolve from GOMAXPROCS (%d here); host-time numbers compare only on the same host\n",
			runtime.GOMAXPROCS(0))
	}
	for _, r := range reps {
		if r.nondet {
			fmt.Fprintf(bw, "gate: repetition changed sim_cycles/events (%d/%d, first %d/%d)\n",
				r.simCycles, r.events, w.first.simCycles, w.first.events)
		}
	}
	first := reps[0]
	fmt.Fprintf(bw, "phases: spans cover at least %.4f%% of every repetition's wall time\n", 100*phaseCoverage(rec.spans))
	fmt.Fprintf(bw, "deterministic: sim_cycles=%d sim.events=%d (identical across all %d repetitions: %v)\n",
		first.simCycles, first.events, len(reps), !anyNondet(reps))
	fmt.Fprintf(bw, "failed_ratio = %g (%d failed of %d attempted: shed queries, wrong answers, wrong batch outputs, nondeterministic repetitions)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	if o.trace == 0 {
		vals := endToEndValues(untraced, setups)
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
			n := len(untraced)
			if m.name == "setup_s" {
				n = len(setups)
			}
			fmt.Fprintf(bw, "metric %-22s %14.6g %-7s median of %d\n", m.name, vals[m.name], m.unit, n)
		}
		fmt.Fprintf(bw, "host times are at the reference host's speed (calibration sample %g s wall, %g s CPU); "+
			"here a sample took %.6g s; unscaled: setup_s %.6g s, mev_per_s %.6g Mev/s, cpu_ns_per_event %.6g ns\n",
			calibRefS, calibRefCPUS, vals["host.calib_s"], vals["host.setup_s_raw"], vals["host.mev_per_s_raw"],
			vals["host.cpu_ns_per_event_raw"])
		if o.workload == "serve_mix" {
			l := first.layer
			fmt.Fprintf(bw, "serving (simulated time; per-layer metrics of the traced run): %.6g q/s, sojourn p50 %.6g ms, p95 %.6g ms "+
				"(%d samples, %d above p95), bfs p50 %.6g ms, ppr p50 %.6g ms, shed %g\n",
				l["serve.qps"], l["serve.sojourn_p50_ms"], l["serve.sojourn_p95_ms"], first.sojournN, first.aboveP95,
				l["serve.bfs_p50_ms"], l["serve.ppr_p50_ms"], l["serve.shed"])
			fmt.Fprintf(bw, "open loop: %d arrivals scheduled in simulated time at a mean gap of %d cycles (%.6g q/s offered); "+
				"the generator is never late (lateness 0 by construction); sojourn counts from the scheduled arrival; shed queries count as failed\n",
				p.Queries, p.MeanGap, 1/p.machine().Seconds(updown.Cycles(p.MeanGap)))
		}
		return res, nil
	}

	vals := layerValues(traced, untraced, p)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
		fmt.Fprintf(bw, "layer %-24s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	var samples int64
	for _, r := range traced {
		for _, n := range r.cpuSamples {
			samples += n
		}
	}
	fmt.Fprintf(bw, "cpu shares: %d simulate-phase samples over %d traced repetitions\n", samples, len(traced))
	writeSelfTimes(bw, rec.spans)
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(bw, "spans: %d written to %s\n", len(rec.spans), path)
	return res, nil
}

func anyNondet(reps []*rep) bool {
	for _, r := range reps {
		if r.nondet {
			return true
		}
	}
	return false
}

// endToEndValues takes medians over the untraced repetitions.
func endToEndValues(reps []*rep, setups []float64) map[string]float64 {
	col := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return map[string]float64{
		"setup_s":                   median(setups),
		"mev_per_s":                 col(func(r *rep) float64 { return r.mevPerS() / r.wallScale() }),
		"cpu_ns_per_event":          col(func(r *rep) float64 { return r.cpuNs * r.cpuScale() }),
		"live_heap_mb":              col(func(r *rep) float64 { return r.heapMB }),
		"sim_cycles":                col(func(r *rep) float64 { return float64(r.simCycles) }),
		"host.calib_s":              col(func(r *rep) float64 { return median(r.calibWall) }),
		"host.setup_s_raw":          col(func(r *rep) float64 { return r.setupS }),
		"host.mev_per_s_raw":        col((*rep).mevPerS),
		"host.cpu_ns_per_event_raw": col(func(r *rep) float64 { return r.cpuNs }),
	}
}

// layerValues takes medians over the traced repetitions; the CPU shares
// pool every traced sample, and the trace overhead compares traced with
// untraced sim.run_s.
func layerValues(traced, untraced []*rep, p params) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.layer[m.name]
		}
		vals[m.name] = median(xs)
	}
	for name, v := range endToEndValues(traced, nil) {
		if strings.HasPrefix(name, "host.") {
			vals[name] = v
		}
	}
	vals["sim.shards"] = float64(p.resolvedShards())
	pooled := map[string]int64{}
	for _, r := range traced {
		for b, n := range r.cpuSamples {
			pooled[b] += n
		}
	}
	shares, _ := cpuShares(pooled)
	for b, s := range shares {
		vals["cpu."+b] = s
	}
	runS := func(reps []*rep) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.layer["sim.run_s"]
		}
		return median(xs)
	}
	if u := runS(untraced); u > 0 {
		vals["trace.overhead_pct"] = 100 * (runS(traced)/u - 1)
	}
	return vals
}

// writeSelfTimes prints, per host span name, the run's call count and
// mean duration and self time per call.
func writeSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		dur, self int64
		n         int
	}
	by := map[string]*agg{}
	for i, s := range spans {
		if s.Clock != clockHost {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.dur += s.dur()
		a.self += self[i]
		a.n++
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintln(w, "host spans, mean per call (self = duration - the part its children cover):")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-16s calls %4d  duration %10.6f s  self %10.6f s\n", n, a.n,
			float64(a.dur)/1e9/float64(a.n), float64(a.self)/1e9/float64(a.n))
	}
}

// cpuModel reads the host CPU model for the run metadata.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

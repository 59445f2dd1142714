package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/prng"
	"updown/internal/serve"
	"updown/internal/telemetry"
)

// params fixes a workload's inputs apart from the seed. They are printed
// with every result.
type params struct {
	Scale         int    `json:"scale"`
	Nodes         int    `json:"nodes"`
	AccelsPerNode int    `json:"accels_per_node"`
	LanesPerAccel int    `json:"lanes_per_accel"`
	Shards        int    `json:"shards_config"`
	Iterations    int    `json:"iterations,omitempty"`
	Root          uint32 `json:"root,omitempty"`
	Queries       int    `json:"queries,omitempty"`
	MeanGap       int64  `json:"mean_gap_cycles,omitempty"`
	Quantum       int64  `json:"quantum_cycles,omitempty"`
	FuseWindow    int64  `json:"fuse_window_cycles,omitempty"`
	QueueCap      int    `json:"queue_cap,omitempty"`
	// SetupOnly is the number of extra set-ups per run that are timed for
	// setup_s and then discarded; serve_mix uses it because one stream
	// fills a run.
	SetupOnly int `json:"setup_only_reps,omitempty"`
}

// workloadParams returns the inputs of a named workload; tiny shrinks
// them for smoke runs whose numbers are not comparable.
func workloadParams(name string, tiny bool) (params, error) {
	var p params
	switch name {
	case "pr_seq":
		p = params{Scale: 16, Nodes: 4, Shards: 1, Iterations: 1}
		if tiny {
			p.Scale, p.Nodes = 8, 1
		}
	case "bfs_auto":
		p = params{Scale: 16, Nodes: 4, Shards: 0, Root: 28}
		if tiny {
			p.Scale, p.Nodes = 8, 2
		}
	case "serve_mix":
		p = params{Scale: 8, Nodes: 2, AccelsPerNode: 4, LanesPerAccel: 16, Shards: 0,
			Queries: 220, MeanGap: 100000, Quantum: 4096, FuseWindow: 2048, QueueCap: 64,
			SetupOnly: 20}
		if tiny {
			p.Scale, p.Queries, p.SetupOnly = 6, 24, 1
		}
	default:
		return p, fmt.Errorf("unknown workload %q (want pr_seq, bfs_auto or serve_mix)", name)
	}
	if p.AccelsPerNode == 0 {
		def := arch.DefaultMachine(p.Nodes)
		p.AccelsPerNode, p.LanesPerAccel = def.AccelsPerNode, def.LanesPerAccel
	}
	return p, nil
}

func (p params) machine() arch.Machine {
	a := arch.DefaultMachine(p.Nodes)
	a.AccelsPerNode, a.LanesPerAccel = p.AccelsPerNode, p.LanesPerAccel
	return a
}

// resolvedShards is the engine's shard choice: Shards 0 means
// min(GOMAXPROCS, nodes).
func (p params) resolvedShards() int {
	n := p.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, p.Nodes))
}

// rep is what one repetition measured.
type rep struct {
	traced     bool
	setupOnly  bool
	nondet     bool
	setupS     float64
	simS       float64
	cpuNs      float64
	calibSetup []float64
	calibWall  []float64
	calibCPU   []float64
	heapMB     float64
	events     int64
	simCycles  int64
	attempted  int
	failed     int
	sojournN   int
	aboveP95   int
	layer      map[string]float64
	cpuSamples map[string]int64
}

// mevPerS is the repetition's simulated events per wall second of its
// simulate phase, in millions.
func (r *rep) mevPerS() float64 { return float64(r.events) / r.simS / 1e6 }

// setupScale, wallScale and cpuScale convert the repetition's set-up,
// simulate wall and simulate CPU times to the reference host's speed: the
// reference calibration time over the median of the matching samples.
func (r *rep) setupScale() float64 { return calibRefS / median(r.calibSetup) }
func (r *rep) wallScale() float64  { return calibRefS / median(r.calibWall) }
func (r *rep) cpuScale() float64   { return calibRefCPUS / median(r.calibCPU) }

// repCtx carries one repetition through its phases.
type repCtx struct {
	rec  *recorder
	root int
	r    *rep
	// threads is the simulation's host parallelism, which calibration
	// matches.
	threads int
}

// workload runs repetitions of one named workload. Its references and
// the first repetition's deterministic counts are kept across
// repetitions.
type workload struct {
	name string
	p    params
	seed uint64
	// tamper, when set, alters the read-back output before validation;
	// tests use it to check that the gate trips.
	tamper func(out any)

	// The host reference answers and, for serve_mix, the query stream,
	// made once per run before any repetition and outside every timing.
	prWant    []float64
	bfsWant   []uint32
	stream    []serve.Query
	serveWant []answer
	first     *rep
}

// answer is the reference result of one point query.
type answer struct {
	result  uint64
	reached bool
}

// prepare makes the run's host references from the same seeded inputs
// the repetitions build. Only the answers are kept, so every repetition
// measures with the same retained heap.
func (w *workload) prepare() {
	rec := newRecorder()
	g := w.buildGraph(rec, 0, w.name != "bfs_auto")
	switch w.name {
	case "pr_seq":
		w.prWant = baseline.PageRank(g, w.p.Iterations)
	case "bfs_auto":
		w.bfsWant = baseline.BFS(g, w.p.Root)
	case "serve_mix":
		w.stream = serveStream(w.p.Queries, w.p.MeanGap, w.streamSeed(), g.N)
		w.serveWant = serveReference(g, w.stream)
	}
}

func (w *workload) graphSeed() uint64  { return prng.Mix64(w.seed) }
func (w *workload) streamSeed() uint64 { return prng.Mix64(w.seed ^ 0x5E4E) }

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runRep runs one repetition under a fresh root span.
func (w *workload) runRep(rec *recorder, traced, setupOnly bool) (*rep, error) {
	r := &rep{traced: traced, setupOnly: setupOnly, layer: map[string]float64{},
		cpuSamples: map[string]int64{}}
	rec.run++
	x := &repCtx{rec: rec, r: r, threads: w.p.resolvedShards()}
	// Collect the previous repetition's garbage outside every timing.
	rec.do("bench.gc", 0, func() error { runtime.GC(); return nil })
	x.root = rec.begin("rep", 0)
	var err error
	switch w.name {
	case "pr_seq", "bfs_auto":
		err = w.batchRep(x)
	case "serve_mix":
		err = w.serveRep(x)
	}
	rec.end(x.root)
	if err != nil {
		return nil, err
	}
	for _, s := range rec.spans {
		if s.Run == rec.run && s.Clock == clockHost {
			if _, ok := spanMetrics[s.Name]; ok {
				r.layer[s.Name+"_s"] += float64(s.dur()) / 1e9
			}
		}
	}
	if !setupOnly {
		w.checkDeterminism(r)
	}
	return r, nil
}

// spanMetrics are the host spans reported as per-layer seconds.
var spanMetrics = map[string]bool{
	"graph.generate": true, "graph.build": true, "graph.split": true,
	"updown.new": true, "gasmem.load": true, "apps.build": true, "apps.readback": true,
	"sim.run": true, "sim.checkpoint": true, "sim.restore": true,
}

// checkDeterminism fails a repetition whose simulated cycles or event
// count differ from the run's first repetition.
func (w *workload) checkDeterminism(r *rep) {
	if w.first == nil {
		w.first = r
		return
	}
	if r.simCycles != w.first.simCycles || r.events != w.first.events {
		r.failed++
		r.nondet = true
	}
}

// setupPhase times the set-up phase and, after it, the live heap.
func (x *repCtx) setupPhase(fn func(parent int) error) error {
	id := x.rec.begin("setup", x.root)
	err := fn(id)
	x.r.setupS = x.rec.end(id)
	if err != nil {
		return err
	}
	if x.r.setupOnly {
		return nil
	}
	// Calibrate before the forced collection, so the kernel's garbage is
	// gone when the simulation starts.
	x.calibrate()
	return x.rec.do("bench.heap", x.root, func() error {
		x.r.heapMB = liveHeapMB()
		return nil
	})
}

// simulatePhase times fn, which returns the events it simulated, with
// process CPU time, allocation and GC counters around it, a CPU profile
// when traced, and the live heap after it.
func (x *repCtx) simulatePhase(fn func(parent int) (int64, error)) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if x.r.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	id := x.rec.begin("simulate", x.root)
	events, err := fn(id)
	x.r.simS = x.rec.end(id)
	cpu1 := cpuTime()
	if x.r.traced {
		err = errors.Join(err, x.rec.do("bench.profile", x.root, func() error {
			pprof.StopCPUProfile()
			return bucketProfile(prof.Bytes(), x.r.cpuSamples)
		}))
	}
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	x.r.events = events
	if events > 0 {
		x.r.cpuNs = float64(cpu1-cpu0) / float64(events)
	}
	x.r.layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	x.r.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	x.r.layer["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	x.rec.do("bench.heap", x.root, func() error {
		x.r.heapMB = max(x.r.heapMB, liveHeapMB())
		return nil
	})
	x.calibrate()
	return nil
}

// simCounters records the engine counters of a finished simulation.
func (x *repCtx) simCounters(m *updown.Machine, st updown.Stats, pub *telemetry.Publisher, span updown.Cycles) {
	l := x.r.layer
	l["sim.events"] = float64(st.Events)
	l["sim.sends"] = float64(st.Sends)
	l["dram.reads"] = float64(st.DRAMReads)
	l["dram.writes"] = float64(st.DRAMWrites)
	l["dram.bytes"] = float64(st.DRAMBytes)
	l["kvmsr.shuffle_msgs"] = float64(st.ShuffleMsgs)
	l["kvmsr.shuffle_tuples"] = float64(st.ShuffleTuples)
	if st.ShuffleMsgs > 0 {
		l["kvmsr.tuples_per_msg"] = float64(st.ShuffleTuples) / float64(st.ShuffleMsgs)
	}
	if span > 0 {
		l["sim.lane_util"] = 100 * float64(st.BusyCycles) / (float64(span) * float64(m.Arch.TotalLanes()))
	}
	var used uint64
	for n := 0; n < m.Arch.Nodes; n++ {
		used += m.GAS.UsedBytes(n)
	}
	l["gasmem.used_mb"] = float64(used) / (1 << 20)
	if pub != nil {
		if s := pub.Latest(); s != nil && s.Windows > 0 {
			l["sim.windows"] = float64(s.Windows)
			l["sim.events_per_window"] = float64(st.Events) / float64(s.Windows)
		}
	}
}

// buildGraph generates and builds the workload's RMAT graph.
func (w *workload) buildGraph(rec *recorder, parent int, undirected bool) *graph.Graph {
	var edges []graph.Edge
	rec.do("graph.generate", parent, func() error {
		edges = graph.DefaultRMAT(w.p.Scale, w.graphSeed())
		return nil
	})
	var g *graph.Graph
	rec.do("graph.build", parent, func() error {
		g = graph.FromEdges(1<<w.p.Scale, edges, graph.BuildOptions{
			Undirected: undirected, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
		return nil
	})
	return g
}

// newMachine assembles the machine and loads the split graph into it.
func (w *workload) newMachine(rec *recorder, parent int, sg *graph.SplitGraph, pub *telemetry.Publisher) (*updown.Machine, *graph.DeviceGraph, error) {
	var m *updown.Machine
	a := w.p.machine()
	err := rec.do("updown.new", parent, func() error {
		var err error
		m, err = updown.New(updown.Config{Arch: &a, Shards: w.p.Shards, MaxTime: 1 << 44, Telemetry: pub})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var dg *graph.DeviceGraph
	err = rec.do("gasmem.load", parent, func() error {
		var err error
		dg, err = graph.LoadToGAS(m.GAS, sg, graph.DefaultPlacement(w.p.Nodes))
		return err
	})
	return m, dg, err
}

// batchApp is the part of the PageRank and BFS apps a batch repetition
// drives.
type batchApp interface {
	InitValues()
	Run() (updown.Stats, error)
	Elapsed() updown.Cycles
}

// batchRep is one pr_seq or bfs_auto repetition: set up, run one job,
// read its output back and check it against the host reference.
func (w *workload) batchRep(x *repCtx) error {
	pr := w.name == "pr_seq"
	var pub *telemetry.Publisher
	if x.r.traced {
		pub = &telemetry.Publisher{}
	}
	var m *updown.Machine
	var app batchApp
	err := x.setupPhase(func(parent int) error {
		g := w.buildGraph(x.rec, parent, pr)
		var sg *graph.SplitGraph
		x.rec.do("graph.split", parent, func() error {
			if pr {
				// fig9's PageRank split: hubs capped at 64 with their
				// in-edges spread over the members.
				sg = graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64,
					Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
			} else {
				sg = graph.Split(g, 256)
			}
			return nil
		})
		var dg *graph.DeviceGraph
		var err error
		if m, dg, err = w.newMachine(x.rec, parent, sg, pub); err != nil {
			return err
		}
		return x.rec.do("apps.build", parent, func() error {
			var err error
			if pr {
				app, err = pagerank.New(m, dg, pagerank.Config{Iterations: w.p.Iterations})
			} else {
				app, err = bfs.New(m, dg, bfs.Config{Root: w.p.Root})
			}
			if err == nil {
				app.InitValues()
			}
			return err
		})
	})
	if err != nil || x.r.setupOnly {
		return err
	}
	var st updown.Stats
	err = x.simulatePhase(func(parent int) (int64, error) {
		err := x.rec.do("sim.run", parent, func() error {
			var err error
			st, err = app.Run()
			return err
		})
		return st.Events, err
	})
	if err != nil {
		return err
	}
	var out any
	x.rec.do("apps.readback", x.root, func() error {
		if pr {
			out = app.(*pagerank.App).Values()
		} else {
			out = app.(*bfs.App).Distances()
		}
		return nil
	})
	if w.tamper != nil {
		w.tamper(out)
	}
	x.rec.do("validate", x.root, func() error {
		x.r.attempted = 1
		var bad int
		if pr {
			bad = comparePR(out.([]float64), w.prWant)
		} else {
			bad = compareBFS(out.([]uint64), w.bfsWant)
		}
		if bad > 0 {
			x.r.failed = 1
		}
		return nil
	})
	return x.rec.do("bench.collect", x.root, func() error {
		x.r.simCycles = int64(app.Elapsed())
		x.simCounters(m, st, pub, st.FinalTime)
		return nil
	})
}

// comparePR counts vertices whose rank differs from the reference by
// more than the tolerance the fig9 harness validates with.
func comparePR(got, want []float64) int {
	if len(got) != len(want) {
		return len(want) + 1
	}
	bad := 0
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*math.Abs(want[v])+1e-13 {
			bad++
		}
	}
	return bad
}

// compareBFS counts vertices whose distance differs from the reference.
func compareBFS(got []uint64, want []uint32) int {
	if len(got) != len(want) {
		return len(want) + 1
	}
	bad := 0
	for v := range want {
		w := uint64(want[v])
		if want[v] == baseline.Unreached {
			w = bfs.Unvisited
		}
		if got[v] != w {
			bad++
		}
	}
	return bad
}

// serveStream builds the open-loop schedule: arrivals at fixed simulated
// cycles, never delayed by the system. The n-1 gaps are exponential
// with the given mean, drawn by stratified sampling (each quantile
// stratum once, in seeded order) so every seed offers exactly the mean
// rate; kinds are an exact BFS/PPR half split in seeded order; sources
// and targets are uniform.
func serveStream(n int, meanGap int64, seed uint64, verts int) []serve.Query {
	rng := prng.NewStream(seed)
	gaps := make([]float64, max(n-1, 0))
	sum := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(len(gaps)))
		sum += gaps[i]
	}
	kinds := make([]serve.Kind, n)
	for i := range kinds {
		kinds[i] = serve.Kind(i % 2)
	}
	for i := len(gaps) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		gaps[i], gaps[j] = gaps[j], gaps[i]
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	qs := make([]serve.Query, n)
	at := 1.0
	for i := range qs {
		qs[i] = serve.Query{Kind: kinds[i], Src: uint32(rng.Intn(verts)),
			Tgt: uint32(rng.Intn(verts)), Arrive: updown.Cycles(at)}
		if i < len(gaps) {
			at += gaps[i] * float64(meanGap) * float64(len(gaps)) / sum
		}
	}
	return qs
}

// serveRep is one serve_mix repetition: set up the resident machine and
// its warm checkpoint, restore it, serve the stream, check every answer.
func (w *workload) serveRep(x *repCtx) error {
	var pub *telemetry.Publisher
	if x.r.traced {
		pub = &telemetry.Publisher{}
	}
	var m *updown.Machine
	var pb *bfs.PointBFS
	var pp *pagerank.PointPPR
	var snap bytes.Buffer
	err := x.setupPhase(func(parent int) error {
		g := w.buildGraph(x.rec, parent, true)
		var sg *graph.SplitGraph
		x.rec.do("graph.split", parent, func() error {
			sg = graph.Split(g, 16)
			return nil
		})
		var dg *graph.DeviceGraph
		var err error
		if m, dg, err = w.newMachine(x.rec, parent, sg, pub); err != nil {
			return err
		}
		err = x.rec.do("apps.build", parent, func() error {
			var err error
			if pb, err = bfs.NewPoint(m, dg, bfs.PointConfig{}); err != nil {
				return err
			}
			pp, err = pagerank.NewPoint(m, dg, pagerank.PointConfig{})
			return err
		})
		if err != nil {
			return err
		}
		return x.rec.do("sim.checkpoint", parent, func() error { return m.Checkpoint(&snap) })
	})
	if err != nil || x.r.setupOnly {
		return err
	}
	var qs []serve.Query
	x.rec.do("bench.inputs", x.root, func() error {
		qs = append([]serve.Query(nil), w.stream...)
		return nil
	})
	var srv *serve.Server
	err = x.simulatePhase(func(parent int) (int64, error) {
		err := x.rec.do("sim.restore", parent, func() error {
			return m.Restore(bytes.NewReader(snap.Bytes()))
		})
		if err != nil {
			return 0, err
		}
		err = x.rec.do("serve.new", parent, func() error {
			var err error
			srv, err = serve.New(m, serve.Config{BFS: pb, PPR: pp,
				Quantum: updown.Cycles(w.p.Quantum), FuseWindow: updown.Cycles(w.p.FuseWindow),
				QueueCap: w.p.QueueCap})
			return err
		})
		if err != nil {
			return 0, err
		}
		err = x.rec.do("sim.run", parent, func() error { return srv.Run(qs) })
		return srv.Stats().Sim.Events, err
	})
	if err != nil {
		return err
	}
	// The server writes every answer into qs: there is nothing to read back.
	if w.tamper != nil {
		w.tamper(qs)
	}
	x.rec.do("validate", x.root, func() error {
		x.r.attempted = len(qs)
		x.r.failed = checkServe(qs, w.serveWant)
		return nil
	})
	return x.rec.do("bench.collect", x.root, func() error {
		w.serveMetrics(x, m, srv, qs, pub)
		return nil
	})
}

// serveMetrics derives a stream's metrics from its resolved schedule.
func (w *workload) serveMetrics(x *repCtx, m *updown.Machine, srv *serve.Server, qs []serve.Query, pub *telemetry.Publisher) {
	st := srv.Stats()
	span := st.Last - st.First
	served := st.Served[0] + st.Served[1]
	x.r.simCycles = int64(span)
	l := x.r.layer
	if span > 0 {
		l["serve.qps"] = float64(served) / m.Seconds(span)
	}
	var soj, wait, exec []float64
	var byKind [2][]float64
	for i := range qs {
		q := &qs[i]
		if q.State != serve.Resolved {
			continue
		}
		ms := m.Seconds(q.Done-q.Arrive) * 1e3
		soj = append(soj, ms)
		byKind[q.Kind] = append(byKind[q.Kind], ms)
		wait = append(wait, m.Seconds(q.Start-q.Arrive)*1e3)
		exec = append(exec, m.Seconds(q.Done-q.Start)*1e3)
	}
	x.r.sojournN = len(soj)
	l["serve.sojourn_p50_ms"], _ = percentile(soj, 50)
	l["serve.sojourn_p95_ms"], x.r.aboveP95 = percentile(soj, 95)
	l["serve.batches"] = float64(st.Batches[0] + st.Batches[1])
	if b := st.Batches[0] + st.Batches[1]; b > 0 {
		l["serve.fused_per_batch"] = float64(served) / float64(b)
	}
	l["serve.shed"] = float64(st.ShedN[0] + st.ShedN[1])
	l["serve.bfs_p50_ms"], _ = percentile(byKind[serve.KindBFS], 50)
	l["serve.ppr_p50_ms"], _ = percentile(byKind[serve.KindPPR], 50)
	l["serve.wait_p50_ms"], _ = percentile(wait, 50)
	l["serve.wait_p95_ms"], _ = percentile(wait, 95)
	l["serve.exec_p50_ms"], _ = percentile(exec, 50)
	l["serve.exec_p95_ms"], _ = percentile(exec, 95)
	x.simCounters(m, st.Sim, pub, span)
	if x.r.traced {
		w.querySpans(x, qs)
	}
}

// querySpans records each resolved query as a sim-clock span with a wait
// child (arrival to batch start) and an execution child (start to done),
// under one span for the whole stream.
func (w *workload) querySpans(x *repCtx, qs []serve.Query) {
	if len(qs) == 0 {
		return
	}
	var last updown.Cycles
	for i := range qs {
		last = max(last, qs[i].Done)
	}
	stream := x.rec.add("serve.stream", x.root, clockSim, int64(qs[0].Arrive), int64(last))
	for i := range qs {
		q := &qs[i]
		if q.State != serve.Resolved {
			continue
		}
		id := x.rec.add("serve.query."+q.Kind.String(), stream, clockSim, int64(q.Arrive), int64(q.Done))
		x.rec.add("serve.wait", id, clockSim, int64(q.Arrive), int64(q.Start))
		x.rec.add("serve.exec", id, clockSim, int64(q.Start), int64(q.Done))
	}
}

// serveReference answers every query of the stream on the host: BFS
// distance plus one (0 when unreached), or the fixed-point forward-push
// score at the default residual floor.
func serveReference(g *graph.Graph, qs []serve.Query) []answer {
	bfsRefs := map[uint32][]uint32{}
	pprRefs := map[uint32][]uint64{}
	want := make([]answer, len(qs))
	for i := range qs {
		q := &qs[i]
		switch q.Kind {
		case serve.KindBFS:
			ref, ok := bfsRefs[q.Src]
			if !ok {
				ref = baseline.BFS(g, q.Src)
				bfsRefs[q.Src] = ref
			}
			if d := ref[q.Tgt]; d != baseline.Unreached {
				want[i] = answer{uint64(d) + 1, true}
			}
		case serve.KindPPR:
			ref, ok := pprRefs[q.Src]
			if !ok {
				ref = pagerank.RefScores(g, q.Src, pagerank.DefaultEps)
				pprRefs[q.Src] = ref
			}
			want[i] = answer{ref[q.Tgt], true}
		}
	}
	return want
}

// checkServe counts queries that were shed or whose answer differs from
// the reference.
func checkServe(qs []serve.Query, want []answer) int {
	bad := 0
	for i := range qs {
		q := &qs[i]
		if q.State != serve.Resolved || q.Reached != want[i].reached ||
			(q.Reached && q.Result != want[i].result) {
			bad++
		}
	}
	return bad
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie above it.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s) - 1 - i
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package sim

// Engine microbenchmarks measuring host event throughput (host-Mev/s:
// millions of simulated events executed per wall-clock second). Four
// workloads stress the distinct host-side costs of the two drivers — the
// sequential driver at shards=1 and the worker pool above it:
//
//   - PingPong: one event per lookahead window — pure per-window overhead
//     (barrier cost, window advance).
//   - AllToAllHotSpot: every lane targets one reduce hot-spot actor —
//     wait-queue pressure and heap churn.
//   - SparseLane: two active lanes on a 16-node machine with event gaps
//     wider than the lookahead — idle-shard and empty-gap handling.
//   - CrossNodeStorm: all traffic crosses shards every window — outbox
//     production and collection.
//
// BenchmarkMsgQueue isolates the event queue itself on a PageRank-shaped
// message stream.
//
// BENCH_sim.json records these numbers before and after engine changes.
// Its entries up to the adaptive-lookahead one also cover two drivers
// deleted since: the fixed-lookahead scheduler and the cooperative
// multiplexer. The timed region is the Run call only: engine construction
// (32K actor-state slots on the SparseLane machine) would dilute
// run-phase differences.

import (
	"fmt"
	"testing"
	"time"

	"updown/internal/arch"
	"updown/internal/prng"
	"updown/internal/telemetry"
)

// benchShards returns the shard counts to sweep for a machine with the
// given node count.
func benchShards(nodes int) []int {
	var out []int
	for _, s := range []int{1, 2, 4, 8} {
		if s <= nodes {
			out = append(out, s)
		}
	}
	return out
}

func reportMevS(b *testing.B, events int64, elapsed time.Duration) {
	b.ReportMetric(float64(events)/elapsed.Seconds()/1e6, "Mev/s")
	b.ReportMetric(0, "ns/op") // the per-op time is meaningless here
}

// BenchmarkEnginePingPong bounces a message between two lanes on different
// nodes. Every window contains exactly one event, so throughput is
// dominated by per-window host overhead.
func BenchmarkEnginePingPong(b *testing.B) {
	const hops = 20000
	for _, shards := range benchShards(2) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(2)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				l0, l1 := m.LaneID(0, 0, 0), m.LaneID(1, 0, 0)
				e.SetActor(l0, &pingPong{peer: l1, limit: hops})
				e.SetActor(l1, &pingPong{peer: l0, limit: hops})
				e.Post(0, l0, arch.KindEvent, 0, 0, 0)
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// hotSender drives one round per window-and-a-half: it fires a message at
// the shared hot-spot actor, then re-arms itself after a fixed delay.
type hotSender struct {
	hot    arch.NetworkID
	rounds uint64
}

func (s *hotSender) OnMessage(env *Env, m *Message) {
	env.Charge(5)
	env.Send(s.hot, arch.KindEvent, 0, 0, m.Ops[0])
	if m.Ops[0] < s.rounds {
		env.SendAfter(1500, env.Self(), arch.KindEvent, 0, 0, m.Ops[0]+1)
	}
}

// BenchmarkEngineAllToAllHotSpot has 128 lanes across 8 nodes all firing
// at one reduce hot-spot actor each round; the hot actor serializes them
// through its wait queue.
func BenchmarkEngineAllToAllHotSpot(b *testing.B) {
	const (
		nodes  = 8
		rounds = 100
	)
	for _, shards := range benchShards(nodes) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(nodes)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				hot := m.LaneID(0, 0, 0)
				e.SetActor(hot, actorFunc(func(env *Env, msg *Message) {
					env.Charge(3)
				}))
				for n := 0; n < nodes; n++ {
					for a := 0; a < 4; a++ {
						for l := 0; l < 4; l++ {
							id := m.LaneID(n, a, l)
							if id == hot {
								continue
							}
							e.SetActor(id, &hotSender{hot: hot, rounds: rounds})
							e.Post(arch.Cycles(int(id)%17), id, arch.KindEvent, 0, 0, 0)
						}
					}
				}
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// chainActor re-arms itself after a fixed delay until its counter expires.
type chainActor struct {
	gap    arch.Cycles
	rounds uint64
}

func (c *chainActor) OnMessage(env *Env, m *Message) {
	env.Charge(7)
	if m.Ops[0] < c.rounds {
		env.SendAfter(c.gap, env.Self(), arch.KindEvent, 0, 0, m.Ops[0]+1)
	}
}

// BenchmarkEngineSparseLane runs two active lanes on a 16-node machine
// with inter-event gaps wider than the lookahead window: almost every
// shard is idle in every window, and the engine must jump empty gaps.
func BenchmarkEngineSparseLane(b *testing.B) {
	for _, shards := range benchShards(16) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				stats, d := sparseLaneRun(b, shards, nil)
				events += stats.Events
				elapsed += d
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// sparseLaneRun executes the SparseLane workload once, with tel
// attached when non-nil, and returns its stats and the wall-clock time
// of the Run call.
func sparseLaneRun(tb testing.TB, shards int, tel *telemetry.Publisher) (Stats, time.Duration) {
	const (
		nodes  = 16
		rounds = 5000
	)
	m := arch.DefaultMachine(nodes)
	e, err := NewEngine(m, Options{Shards: shards, Telemetry: tel})
	if err != nil {
		tb.Fatal(err)
	}
	for _, node := range []int{0, nodes - 1} {
		id := m.LaneID(node, 0, 0)
		e.SetActor(id, &chainActor{gap: 2500, rounds: rounds})
		e.Post(0, id, arch.KindEvent, 0, 0, 0)
	}
	start := time.Now()
	stats, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return stats, time.Since(start)
}

// TestPoolElidesBarriers is the CI gate on the pool's barrier elision:
// SparseLane's two chains never cross a shard, so at 4 shards the
// lock-free extension phase must carry the whole run through a handful
// of barrier windows instead of one per lookahead (a fixed window of
// MinCrossNodeLatency cycles needs about 5000 here), and the result
// must equal the sequential driver's. The telemetry beat counts the
// windows; with no cross-shard traffic that count does not depend on
// thread timing, so the gate holds under -race and at GOMAXPROCS=1.
func TestPoolElidesBarriers(t *testing.T) {
	ref, _ := sparseLaneRun(t, 1, nil)
	pub := &telemetry.Publisher{}
	stats, _ := sparseLaneRun(t, 4, pub)
	if stats.Events != ref.Events || stats.FinalTime != ref.FinalTime {
		t.Errorf("shards=4: events %d final %d, sequential: events %d final %d",
			stats.Events, stats.FinalTime, ref.Events, ref.FinalTime)
	}
	if w := pub.Latest().Windows; w > 50 {
		t.Errorf("shards=4: %d barrier windows, want at most 50", w)
	}
}

// stormActor forwards every message to a lane on the next node, so all
// traffic crosses shard boundaries.
type stormActor struct {
	m *arch.Machine
}

func (s *stormActor) OnMessage(env *Env, m *Message) {
	env.Charge(10)
	if m.Ops[0] == 0 {
		return
	}
	node := (s.m.NodeOf(env.Self()) + 1) % s.m.Nodes
	lane := (s.m.LaneOf(env.Self()) + 3) % 8
	env.Send(s.m.LaneID(node, 0, lane), arch.KindEvent, 0, 0, m.Ops[0]-1)
}

// BenchmarkEngineCrossNodeStorm keeps 64 lanes exchanging cross-node
// messages for 200 hops each: every window moves a full outbox exchange
// across all shards.
func BenchmarkEngineCrossNodeStorm(b *testing.B) {
	const (
		nodes = 8
		hops  = 200
	)
	for _, shards := range benchShards(nodes) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(nodes)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < nodes; n++ {
					for l := 0; l < 8; l++ {
						id := m.LaneID(n, 0, l)
						e.SetActor(id, &stormActor{m: &e.M})
						e.Post(arch.Cycles(int(id)%13), id, arch.KindEvent, 0, 0, hops)
					}
				}
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// BenchmarkMsgQueue replays a stream shaped like the fig9 PageRank run on
// the sequential driver through msgHeap alone: about 200k resident
// messages from 16k lanes, about 120 pops per cycle, and each pop pushing
// one message at a delay drawn from that run's measured histogram (35%
// below 1024 cycles, 41% in 1024-2047, 20% in 2048-4095, 4% in
// 4096-8191). One op is one pop, release and push.
func BenchmarkMsgQueue(b *testing.B) {
	const (
		resident = 200_000
		lanes    = 1 << 14
		table    = 1 << 16
	)
	r := prng.NewStream(1)
	delay := make([]arch.Cycles, table)
	src := make([]arch.NetworkID, table)
	for i := range delay {
		lo, span := arch.Cycles(1), arch.Cycles(1023)
		switch p := r.Intn(100); {
		case p >= 96:
			lo, span = 4096, 4096
		case p >= 76:
			lo, span = 2048, 2048
		case p >= 35:
			lo, span = 1024, 1024
		}
		delay[i] = lo + arch.Cycles(r.Uint64n(uint64(span)))
		src[i] = arch.NetworkID(r.Intn(lanes))
	}
	seq := make([]uint64, lanes)
	var h msgHeap
	var k int
	push := func(now arch.Cycles) {
		s := src[k%table]
		h.push(&Message{Deliver: now + delay[k%table], Src: s, Seq: seq[s]})
		seq[s]++
		k++
	}
	for h.len() < resident {
		push(0)
	}
	// Warm up into the steady state before timing.
	for j := 0; j < 4*resident; j++ {
		i := h.popIdx()
		now := h.arena[i].Deliver
		h.release(i)
		push(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := h.popIdx()
		now := h.arena[i].Deliver
		h.release(i)
		push(now)
	}
}

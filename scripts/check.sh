#!/bin/sh
# Tier-1 verify flow: vet, build, full test suite, then the race detector
# over the concurrency-bearing packages (the simulator's persistent worker
# pool, the KVMSR runtime, and the metrics recorder's shard views).
set -eux

# Determinism guard: all randomness must flow through internal/prng's
# seeded streams. A stray math/rand import anywhere else (simulated path
# or test) breaks bit-reproducibility — including fault-injection
# verdicts, which are pure functions of (seed, src, seq).
if grep -rn --include='*.go' '"math/rand' . | grep -v '^\./internal/prng/'; then
    echo "error: math/rand import outside internal/prng (use updown/internal/prng)" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./internal/sim/ ./internal/kvmsr/ ./internal/metrics/ ./internal/telemetry/

# Allocation guards: once warm, executing an event and making its send
# must not touch the Go heap (TestDispatchAllocs on both engine drivers,
# TestLaneDispatchAllocs through a udweave lane). The race detector
# allocates on its own, so both tests build only without -race and the
# race step above skips them. -count=1 keeps a cached go test ./...
# result from hiding a regression.
go test -run 'DispatchAllocs$' -count=1 ./internal/sim/ ./internal/udweave/

# Event-queue fuzz smoke: the calendar queue's ring, far heap, slide-back
# and compaction paths are checked against a sorted reference on
# coverage-guided operation sequences. The checked-in corpus runs in every
# go test; this short run keeps exploring beyond it, so a regression in a
# rarely taken path has a chance to show before it reorders a simulation.
go test -run '^$' -fuzz '^FuzzMsgQueue$' -fuzztime 10s ./internal/sim/

# Bench smoke: the shuffle-aggregation benchmark asserts (via b.Fatalf)
# that coalesced+combined PageRank pushes strictly fewer messages into
# the inter-node network than the classic shuffle while emitting the
# same number of logical tuples.
go test -run XX -bench BenchmarkKVMSRShuffle -benchtime=5x .

# Barrier-elision gate: on the lookahead-bound SparseLane workload the
# 4-shard worker pool must finish in at most 50 barrier windows (a fixed
# MinCrossNodeLatency window needs about 5000) with the sequential
# driver's events and final time. The window count is deterministic, so
# the gate also runs here at one CPU, where the pool's barrier yields at
# once instead of spinning.
GOMAXPROCS=1 go test -run TestPoolElidesBarriers -count=1 ./internal/sim/

# Benchmark-history sanity: benchdiff must parse BENCH_sim.json and find
# no regression between the recorded entries (they are historical, so
# this only breaks when the file or the tool is broken).
go run ./cmd/benchdiff -max-regress 100

# Replication smoke: figchaos -rep fail-stops a data-carrying node at
# k=2 mid-run and exits nonzero unless the faulted outputs match the
# fault-free run with zero dead letters and an in-place bit-exact heal;
# the fig12 -reps extension must measure a write fan-out (dramx > 1).
go run ./cmd/figchaos -rep 2 -scale 8
go run ./cmd/fig12 -scale 10 -mem 4 -compute 4 -reps 2 \
    | awk '/^k=2/ { if ($8 <= 1.0) { print "fig12 k=2 dramx <= 1: no write fan-out measured"; exit 1 } found=1 } END { exit !found }'

# Serving smoke: a small figserve sweep must resolve every query, and
# fused micro-batching must beat the one-query-per-cycle baseline at
# the saturating load point (higher queries/sec on the same stream).
go run ./cmd/figserve -queries 12 -gaps 8000,3000 \
    | awk '/^saturation:/ { if ($3+0 <= $7+0) { print "figserve: fused qps not above unfused"; exit 1 } found=1 } END { exit !found }'

# Scheduler smoke: a small multi-tenant sweep with -verify replays every
# completed job solo, pinned to the same nodes, and exits nonzero unless
# outputs, completion cycles and attributed totals are bit-identical to
# the concurrent run; the race detector covers the scheduler package's
# reconcile loop over the sharded engine.
go test -race -count=1 ./internal/sched/
go run ./cmd/figsched -nodes 4 -scale 8 -jobs 8 -loads 8000,3000 -verify

# CLI-input smoke (ROADMAP item 4: panics reachable from CLI input become
# typed errors): every graph-generating command must reject -scale -1
# with exit status 1 and an error message, never a runtime panic.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./cmd/fig9pr ./cmd/fig9bfs ./cmd/fig9tc ./cmd/fig12 \
    ./cmd/figchaos ./cmd/figserve ./cmd/figsched ./cmd/updown-sim
for cmd in fig9pr fig9bfs fig9tc fig12 figchaos "figchaos -rep 2" figserve figsched "updown-sim -app bfs"; do
    status=0
    $bin/$cmd -scale -1 >/dev/null 2>"$bin/stderr" || status=$?
    if [ "$status" -ne 1 ] || grep -q 'panic:' "$bin/stderr"; then
        echo "$cmd -scale -1: exit $status, want 1 without a panic" >&2
        cat "$bin/stderr" >&2
        exit 1
    fi
done

//go:build !race

// The race detector allocates on its own, so the allocation guards build
// only without it.

package sim

import (
	"fmt"
	"runtime"
	"testing"

	"updown/internal/arch"
)

// TestDispatchAllocs pins allocation-free event dispatch: once the arena,
// ring and outboxes have grown, executing an event and making its send
// must not touch the Go heap, on either driver. Two warm runs of n and 2n
// ping-pong events on one engine share every per-run cost, so the extra
// n events may allocate at most a small constant.
func TestDispatchAllocs(t *testing.T) {
	const n = 20000
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := arch.DefaultMachine(2)
			e, err := NewEngine(m, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			l0, l1 := m.LaneID(0, 0, 0), m.LaneID(1, 0, 0)
			a, b := &pingPong{peer: l1}, &pingPong{peer: l0}
			e.SetActor(l0, a)
			e.SetActor(l1, b)
			var done int64 // Stats accumulate across runs
			run := func(events uint64) int64 {
				a.limit, b.limit = events, events
				e.Post(0, l0, arch.KindEvent, 0, 0, 0)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				stats, err := e.Run()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if got := stats.Events - done; got != int64(events)+1 {
					t.Fatalf("%d events, want %d", got, events+1)
				}
				done = stats.Events
				return int64(after.Mallocs - before.Mallocs)
			}
			run(n) // warm up
			once, twice := run(n), run(2*n)
			if extra := twice - once; extra >= n/100 {
				t.Errorf("%d more events made %d more heap allocations (%d at n, %d at 2n), want fewer than %d",
					n, extra, once, twice, n/100)
			}
		})
	}
}

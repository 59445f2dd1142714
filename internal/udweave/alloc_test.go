//go:build !race

// The race detector allocates on its own, so the allocation guard builds
// only without it.

package udweave_test

import (
	"runtime"
	"testing"

	"updown/internal/udweave"
)

// TestLaneDispatchAllocs pins allocation-free lane dispatch: a chain of
// events, each spawning a fresh thread that sends the next event and
// terminates, must not touch the Go heap once the lane's thread pool has
// warmed up. Two warm runs of n and 2n events share every per-run cost,
// so the extra n events may allocate at most a small constant.
func TestLaneDispatchAllocs(t *testing.T) {
	const n = 20000
	r := newRig(t, 1)
	lane := r.m.LaneID(0, 0, 0)
	var spawn udweave.Label
	spawn = r.prog.Define("spawn", func(c *udweave.Ctx) {
		c.YieldTerminate()
		if left := c.Op(0); left > 0 {
			c.SendEvent(udweave.EvwNew(c.NetworkID(), spawn), udweave.IGNRCONT, left-1)
		}
	})
	var done int64 // Stats accumulate across runs
	run := func(events uint64) int64 {
		r.start(udweave.EvwNew(lane, spawn), events-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats := r.run(t)
		runtime.ReadMemStats(&after)
		if got := stats.Events - done; got != int64(events) {
			t.Fatalf("%d events, want %d", got, events)
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
}

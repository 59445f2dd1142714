package main

import (
	"slices"
	"sync"
	"time"
)

// calibRefS and calibRefCPUS are the calibration sample's wall and CPU
// seconds on the reference host (a 2-vCPU Intel Xeon virtual machine,
// Go 1.24): the speed host times are reported at.
const (
	calibRefS    = 0.08
	calibRefCPUS = 0.08
)

// calibSample runs a fixed kernel in the shape of a graph set-up: it
// generates 2^20 random edges over 2^16 vertices, sorts them and builds
// the compressed adjacency. The kernel is the benchmark's own code, so no
// change to the program moves it; only the host's speed at that moment
// does. edges and adj are scratch buffers of 2^20 entries.
func calibSample(edges []uint64, adj []uint32) {
	const verts = 1 << 16
	x := uint64(0x9E3779B97F4A7C15)
	for i := range edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		edges[i] = x % (verts * verts)
	}
	slices.Sort(edges)
	var offsets [verts + 1]uint32
	for _, e := range edges {
		offsets[e/verts+1]++
	}
	for v := 1; v <= verts; v++ {
		offsets[v] += offsets[v-1]
	}
	for _, e := range edges {
		src := e / verts
		adj[offsets[src]] = uint32(e % verts)
		offsets[src]++
	}
}

// calibrate times the kernel twice on one goroutine, the shape of the
// single-threaded set-up, and, for a parallel simulation, twice on as
// many goroutines as it has shards, waiting for all of them: like the
// simulation's window barriers, that sample feels the slowest CPU it
// runs on.
func (x *repCtx) calibrate() {
	x.rec.do("bench.calibrate", x.root, func() error {
		bufs := make([][]uint64, x.threads)
		adjs := make([][]uint32, x.threads)
		for t := range bufs {
			bufs[t], adjs[t] = make([]uint64, 1<<20), make([]uint32, 1<<20)
		}
		sample := func(threads int) (wallS, cpuS float64) {
			c0, t0 := cpuTime(), time.Now()
			var wg sync.WaitGroup
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					calibSample(bufs[t], adjs[t])
				}(t)
			}
			wg.Wait()
			return time.Since(t0).Seconds(), float64(cpuTime()-c0) / 1e9 / float64(threads)
		}
		for i := 0; i < 2; i++ {
			w, c := sample(1)
			x.r.calibSetup = append(x.r.calibSetup, w)
			if x.threads > 1 {
				w, c = sample(x.threads)
			}
			x.r.calibWall = append(x.r.calibWall, w)
			x.r.calibCPU = append(x.r.calibCPU, c)
		}
		return nil
	})
}

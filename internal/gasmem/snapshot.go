package gasmem

// Checkpoint support: GAS serializes its allocator bookkeeping and
// backing stores with its own fixed-width little-endian encoding, so the
// package stays free of simulator dependencies. The section is embedded
// in the machine-level checkpoint (see the updown package).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

const (
	snapMagic = "UDGASMEM"
	// Version 2 added the replication descriptor fields (Rep, perNode,
	// ring node assignments) to each region record. Version 3 added the
	// region Owner tag and the per-node free lists, so a restored machine
	// can keep reclaiming finished jobs' regions.
	snapVersion = uint32(3)
	// snapPrealloc caps what RestoreSnapshot reserves for an announced
	// free-list length, region count or node store length; longer ones
	// grow as their records arrive, so a corrupt count fails on
	// truncation instead.
	snapPrealloc = 1 << 12
)

type snapWriter struct {
	w   *bufio.Writer
	buf [8]byte
	err error
}

func (w *snapWriter) u64(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:])
}

type snapReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if _, r.err = io.ReadFull(r.r, r.buf[:]); r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// Snapshot writes the address space — regions, per-node usage and the
// full backing stores — to w. The encoding is canonical: equal address
// spaces produce equal bytes.
func (g *GAS) Snapshot(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	bw := bufio.NewWriter(w)
	sw := &snapWriter{w: bw}
	if sw.err == nil {
		_, sw.err = bw.WriteString(snapMagic)
	}
	sw.u64(uint64(snapVersion))
	sw.u64(uint64(g.nodes))
	sw.u64(g.capacity)
	sw.u64(g.nextVA)
	for _, u := range g.used {
		sw.u64(u)
	}
	for _, fl := range g.free {
		sw.u64(uint64(len(fl)))
		for _, e := range fl {
			sw.u64(e.Off)
			sw.u64(e.Size)
		}
	}
	sw.u64(uint64(len(g.regions)))
	for _, r := range g.regions {
		sw.u64(r.Base)
		sw.u64(r.Size)
		sw.u64(uint64(r.FirstNode))
		sw.u64(uint64(r.NRNodes))
		sw.u64(r.BS)
		sw.u64(uint64(r.Rep))
		sw.u64(uint64(int64(r.Owner)))
		sw.u64(r.perNode)
		for _, nd := range r.nodes {
			sw.u64(uint64(nd))
		}
		for _, pb := range r.physBase {
			sw.u64(pb)
		}
	}
	for _, st := range g.store {
		sw.u64(uint64(len(st)))
		for _, v := range st {
			sw.u64(v)
		}
	}
	if sw.err != nil {
		return fmt.Errorf("gasmem: snapshot write: %w", sw.err)
	}
	return bw.Flush()
}

// RestoreSnapshot replaces the address space's contents with a snapshot
// previously written by Snapshot. The GAS must span the same number of
// nodes with the same per-node capacity; mismatches are rejected before
// any state is modified.
func (g *GAS) RestoreSnapshot(r io.Reader) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	br := bufio.NewReader(r)
	sr := &snapReader{r: br}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapMagic {
		return fmt.Errorf("gasmem: not a GAS snapshot (got %q)", magic)
	}
	if v := sr.u64(); sr.err == nil && v != uint64(snapVersion) {
		return fmt.Errorf("gasmem: snapshot version %d, this build reads %d", v, snapVersion)
	}
	nodes := sr.u64()
	capacity := sr.u64()
	nextVA := sr.u64()
	if sr.err != nil {
		return fmt.Errorf("gasmem: truncated snapshot header: %w", sr.err)
	}
	if int(nodes) != g.nodes || capacity != g.capacity {
		return fmt.Errorf("gasmem: snapshot for %d nodes × %d bytes, this GAS has %d × %d",
			nodes, capacity, g.nodes, g.capacity)
	}
	used := make([]uint64, g.nodes)
	for i := range used {
		used[i] = sr.u64()
	}
	free := make([][]extent, g.nodes)
	for i := range free {
		n := sr.u64()
		if sr.err != nil {
			break
		}
		if n > 1<<32 {
			return fmt.Errorf("gasmem: implausible free-list length %d on node %d", n, i)
		}
		fl := make([]extent, 0, min(n, snapPrealloc))
		for j := uint64(0); j < n && sr.err == nil; j++ {
			x := extent{Off: sr.u64(), Size: sr.u64()}
			if sr.err == nil && (x.Size == 0 || x.Off+x.Size > used[i] ||
				(j > 0 && x.Off < fl[j-1].Off+fl[j-1].Size)) {
				return fmt.Errorf("gasmem: corrupt free extent %d on node %d", j, i)
			}
			fl = append(fl, x)
		}
		free[i] = fl
	}
	nregions := sr.u64()
	if sr.err == nil && nregions > 1<<32 {
		return fmt.Errorf("gasmem: implausible region count %d", nregions)
	}
	regions := make([]*Region, 0, min(nregions, snapPrealloc))
	for i := uint64(0); i < nregions && sr.err == nil; i++ {
		reg := &Region{
			Base:      sr.u64(),
			Size:      sr.u64(),
			FirstNode: int(sr.u64()),
			NRNodes:   int(sr.u64()),
			BS:        sr.u64(),
			Rep:       int(sr.u64()),
			Owner:     int(int64(sr.u64())),
			perNode:   sr.u64(),
		}
		if sr.err != nil {
			break
		}
		if reg.NRNodes <= 0 || reg.NRNodes&(reg.NRNodes-1) != 0 ||
			reg.FirstNode < 0 || reg.FirstNode+reg.NRNodes > g.nodes ||
			reg.BS == 0 || reg.BS&(reg.BS-1) != 0 ||
			reg.Rep < 1 || reg.Rep > reg.NRNodes {
			return fmt.Errorf("gasmem: corrupt region descriptor %d", i)
		}
		reg.nodes = make([]int32, reg.NRNodes)
		for j := range reg.nodes {
			nd := sr.u64()
			if sr.err == nil && nd >= uint64(g.nodes) {
				return fmt.Errorf("gasmem: corrupt region descriptor %d", i)
			}
			reg.nodes[j] = int32(nd)
		}
		reg.physBase = make([]uint64, reg.NRNodes)
		for j := range reg.physBase {
			reg.physBase[j] = sr.u64()
		}
		reg.bsShift = uint(bits.TrailingZeros64(reg.BS))
		reg.nodeMask = uint64(reg.NRNodes - 1)
		regions = append(regions, reg)
	}
	store := make([][]uint64, g.nodes)
	for i := range store {
		n := sr.u64()
		if sr.err != nil {
			break
		}
		if n*WordBytes > capacity+WordBytes {
			return fmt.Errorf("gasmem: node %d store of %d words exceeds capacity", i, n)
		}
		st := make([]uint64, 0, min(n, snapPrealloc))
		for uint64(len(st)) < n && sr.err == nil {
			if len(st) == cap(st) {
				// Double, but never past n: a store read in full ends
				// at its exact size, not with up to 2x slack.
				st = slices.Grow(st, int(min(uint64(cap(st)), n-uint64(len(st)))))
			}
			st = append(st, sr.u64())
		}
		store[i] = st
	}
	if sr.err != nil {
		return fmt.Errorf("gasmem: truncated snapshot: %w", sr.err)
	}
	g.nextVA = nextVA
	g.used = used
	g.free = free
	g.regions = regions
	g.store = store
	g.replicated = false
	for _, reg := range regions {
		if reg.Rep > 1 {
			g.replicated = true
		}
	}
	return nil
}

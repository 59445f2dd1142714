package gasmem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := New(4, 1<<20)
	a, err := g.DRAMmalloc(64*1024, 0, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.DRAMmalloc(8*1024, 1, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		g.WriteU64(a+i*WordBytes, i*i+1)
		g.WriteU64(b+i*WordBytes, ^i)
	}

	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	h := New(4, 1<<20)
	if err := h.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if got := h.ReadU64(a + i*WordBytes); got != i*i+1 {
			t.Fatalf("word %d of region a: got %d want %d", i, got, i*i+1)
		}
		if got := h.ReadU64(b + i*WordBytes); got != ^i {
			t.Fatalf("word %d of region b: got %d want %d", i, got, ^i)
		}
	}
	// The allocator must continue where it left off: a fresh allocation
	// in the restored space lands at the same VA as in the original.
	va1, err := g.DRAMmalloc(4096, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := h.DRAMmalloc(4096, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if va1 != va2 {
		t.Fatalf("allocator state diverges: next VA %#x vs %#x", va2, va1)
	}
	// Canonical bytes: after identical further use, the restored space
	// snapshots to exactly the original's bytes.
	var buf1, buf2 bytes.Buffer
	if err := g.Snapshot(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := h.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("restored GAS snapshots differently from the original")
	}
}

func TestSnapshotRejectsMismatch(t *testing.T) {
	g := New(4, 1<<20)
	if _, err := g.DRAMmalloc(4096, 0, 2, 4096); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	h := New(2, 1<<20) // wrong node count
	if err := h.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "nodes") {
		t.Fatalf("node-count mismatch not rejected: %v", err)
	}
	h2 := New(4, 1<<10) // wrong capacity
	if err := h2.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("capacity mismatch not rejected")
	}
	h3 := New(4, 1<<20)
	if err := h3.RestoreSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Fatal("truncated snapshot not rejected")
	}
	// A rejected restore must leave the target untouched.
	if _, err := h3.DRAMmalloc(4096, 0, 1, 4096); err != nil {
		t.Fatalf("GAS broken after rejected restore: %v", err)
	}
}

// TestSnapshotRejectsHugeCounts: a short stream announcing 1<<32 free
// extents or regions, or a node store as large as the node's capacity,
// must fail on truncation without reserving what it announces (64 GB and
// 32 GB of records, and a 1 GB store).
func TestSnapshotRejectsHugeCounts(t *testing.T) {
	const nodes = 4
	// The header is magic, version, node count, capacity and next VA,
	// then one used word per node; four empty free lists follow, then the
	// region count, then each node's store length.
	freeAt := len(snapMagic) + 8*(4+nodes)
	regionsAt := freeAt + 8*nodes
	storeAt := regionsAt + 8
	for _, c := range []struct {
		name     string
		capacity uint64
		at       int
		count    uint64
	}{
		{"free list", 1 << 20, freeAt, 1 << 32},
		{"regions", 1 << 20, regionsAt, 1 << 32},
		{"store", 1 << 30, storeAt, 1 << 30 / WordBytes},
	} {
		var buf bytes.Buffer
		if err := New(nodes, c.capacity).Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		d := binary.LittleEndian.AppendUint64(append([]byte(nil), buf.Bytes()[:c.at]...), c.count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := New(nodes, c.capacity).RestoreSnapshot(bytes.NewReader(d))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: got %v, want a truncation error", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Errorf("%s: rejected restore allocated %d MB", c.name, grew>>20)
		}
	}
}

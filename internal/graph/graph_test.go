package graph

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}}, BuildOptions{SortNeighbors: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong")
	}
	ns := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("neighbors(0) = %v", ns)
	}
}

func TestFromEdgesUndirectedDedupSelfLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}},
		BuildOptions{Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 0-1 in both directions only.
	if g.NumEdges() != 2 || g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("unexpected shape: edges=%d degrees=%d,%d,%d",
			g.NumEdges(), g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestFromEdgesPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge accepted")
		}
	}()
	FromEdges(2, []Edge{{0, 5}}, BuildOptions{})
}

func TestRMATDeterministicAndSkewed(t *testing.T) {
	e1 := DefaultRMAT(10, 42)
	e2 := DefaultRMAT(10, 42)
	if len(e1) != 1024*16 {
		t.Fatalf("edge count %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
	e3 := DefaultRMAT(10, 43)
	same := 0
	for i := range e1 {
		if e1[i] == e3[i] {
			same++
		}
	}
	if same == len(e1) {
		t.Fatal("different seeds produced identical graphs")
	}
	// Skew: RMAT max degree must far exceed Erdős–Rényi's at equal size.
	gr := FromEdges(1024, e1, BuildOptions{Dedup: true})
	ge := FromEdges(1024, ErdosRenyiEdges(1024, 16, 42), BuildOptions{Dedup: true})
	if gr.MaxDegree() < 2*ge.MaxDegree() {
		t.Fatalf("RMAT max degree %d not clearly above ER %d", gr.MaxDegree(), ge.MaxDegree())
	}
}

func TestForestFireConnectedAndDeterministic(t *testing.T) {
	e1 := ForestFireEdges(500, 0.35, 7)
	e2 := ForestFireEdges(500, 0.35, 7)
	if len(e1) != len(e2) {
		t.Fatal("not deterministic")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("not deterministic")
		}
	}
	if len(e1) < 499 {
		t.Fatalf("too few edges: %d", len(e1))
	}
	// Every vertex > 0 must have at least one edge (the ambassador link).
	seen := make([]bool, 500)
	for _, e := range e1 {
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	for v := 1; v < 500; v++ {
		if !seen[v] {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, p := range Presets {
		edges := p.Build(8, 1)
		if len(edges) == 0 {
			t.Errorf("preset %s generated no edges", p.Name)
		}
		g := FromEdges(256, edges, BuildOptions{Undirected: p.Undirected, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
		if err := g.Validate(); err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
	if p, err := PresetByName("twitter"); err != nil || p.Name != "twitter" {
		t.Error("lookup failed")
	}
}

// TestGenerate: the preset builder matches FromEdges over the preset's
// edges with the harness options, forces symmetry on request, and rejects
// an unknown preset and every scale outside [0, MaxScale] with a typed
// error naming the value (1<<-1 panics, 1<<70 is 0).
func TestGenerate(t *testing.T) {
	g, err := Generate("rmat", 8, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	want := FromEdges(256, DefaultRMAT(8, 3), BuildOptions{Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	if g.N != want.N || g.NumEdges() != want.NumEdges() {
		t.Fatalf("rmat s8: %d vertices %d edges, want %d %d", g.N, g.NumEdges(), want.N, want.NumEdges())
	}
	for i := range want.Neigh {
		if g.Neigh[i] != want.Neigh[i] {
			t.Fatalf("rmat s8: neighbor %d = %d, want %d", i, g.Neigh[i], want.Neigh[i])
		}
	}
	u, err := Generate("rmat", 8, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumEdges() <= g.NumEdges() {
		t.Errorf("forced undirected: %d edges, directed %d", u.NumEdges(), g.NumEdges())
	}
	if _, err := Generate("nope", 8, 3, false); err == nil {
		t.Error("unknown preset accepted")
	}
	for _, scale := range []int{-1, 33, 70} {
		_, err := Generate("rmat", scale, 3, false)
		var se *ScaleError
		if !errors.As(err, &se) || se.Scale != scale {
			t.Errorf("scale %d: err = %v, want *ScaleError", scale, err)
		} else if !strings.Contains(err.Error(), fmt.Sprint(scale)) {
			t.Errorf("scale %d: error %q does not name the value", scale, err)
		}
	}
}

func TestSplitCapsDegreeAndPreservesEdges(t *testing.T) {
	edges := DefaultRMAT(10, 5)
	g := FromEdges(1024, edges, BuildOptions{Dedup: true, SortNeighbors: true})
	for _, cap := range []int{8, 64, 512} {
		s := Split(g, cap)
		if err := s.ValidateSplit(g); err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if s.MaxDegree() > cap {
			t.Fatalf("cap %d: max degree %d", cap, s.MaxDegree())
		}
	}
}

func TestSplitNoOpBelowCap(t *testing.T) {
	g := FromEdges(8, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{})
	s := Split(g, 100)
	if s.N != g.N {
		t.Fatalf("split created %d vertices from %d without need", s.N, g.N)
	}
	if err := s.ValidateSplit(g); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMembers(t *testing.T) {
	// Star: vertex 0 has degree 10, cap 3 -> 1 original + 3 subs.
	var edges []Edge
	for i := 1; i <= 10; i++ {
		edges = append(edges, Edge{0, uint32(i)})
	}
	g := FromEdges(11, edges, BuildOptions{})
	s := Split(g, 3)
	mem := s.Members(0)
	if len(mem) != 4 {
		t.Fatalf("members = %v", mem)
	}
	base := s.NewID[0]
	total := 0
	for i, v := range mem {
		if v != base+uint32(i) {
			t.Fatalf("members not consecutive: %v", mem)
		}
		d := s.Degree(v)
		if d > 3 {
			t.Fatalf("member %d degree %d", v, d)
		}
		total += d
		if s.Parent[v] != base {
			t.Fatalf("member %d parent %d, want base %d", v, s.Parent[v], base)
		}
		if s.OrigID[v] != 0 {
			t.Fatalf("member %d OrigID %d", v, s.OrigID[v])
		}
		if s.TotalDeg[v] != 10 {
			t.Fatalf("member %d TotalDeg %d", v, s.TotalDeg[v])
		}
	}
	if total != 10 {
		t.Fatalf("members carry %d edges, want 10", total)
	}
}

func TestSplitProperty(t *testing.T) {
	f := func(seed uint64, capSel uint8) bool {
		edges := DefaultRMAT(8, seed)
		g := FromEdges(256, edges, BuildOptions{Dedup: true})
		cap := []int{4, 16, 100}[capSel%3]
		s := Split(g, cap)
		return s.ValidateSplit(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBinaryIORoundTrip(t *testing.T) {
	g := FromEdges(512, DefaultRMAT(9, 3), BuildOptions{Dedup: true, SortNeighbors: true})
	var gv, nl bytes.Buffer
	if err := WriteGV(&gv, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteNL(&nl, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGVNL(&gv, &nl)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatal("shape changed")
	}
	for v := uint32(0); int(v) < g.N; v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbor %d changed", v, i)
			}
		}
	}
}

func TestReadGVNLRejectsGarbage(t *testing.T) {
	if _, err := ReadGVNL(strings.NewReader("not binary"), strings.NewReader("x")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := "# comment\n3 4\n1\t2\n\n% other\n0 3\n"
	edges, n, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 || n != 5 {
		t.Fatalf("edges=%v n=%d", edges, n)
	}
	// Skip the first data line via the offset flag.
	edges, _, err = ReadEdgeList(strings.NewReader("junk header\n1 2\n"), 1)
	if err != nil || len(edges) != 1 {
		t.Fatalf("skip failed: %v %v", edges, err)
	}
	if _, _, err := ReadEdgeList(strings.NewReader("1\n"), 0); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestWriteEdgeListRoundTrip(t *testing.T) {
	in := []Edge{{1, 2}, {3, 4}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, n, err := ReadEdgeList(&buf, 0)
	if err != nil || n != 5 || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %v %d %v", out, n, err)
	}
}

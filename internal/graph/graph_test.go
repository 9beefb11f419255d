package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rmt/internal/nodeset"
)

func mustParse(t *testing.T, s string) *Graph {
	t.Helper()
	g, err := ParseEdgeList(s)
	if err != nil {
		t.Fatalf("ParseEdgeList(%q): %v", s, err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("New() not empty")
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if g.MaxID() != -1 {
		t.Fatalf("MaxID = %d", g.MaxID())
	}
}

func TestAddNodeEdge(t *testing.T) {
	g := New()
	g.AddEdge(0, 5)
	if !g.HasNode(0) || !g.HasNode(5) || g.HasNode(3) {
		t.Fatal("nodes wrong after AddEdge")
	}
	if !g.HasEdge(0, 5) || !g.HasEdge(5, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 3) || g.HasEdge(9, 9) {
		t.Fatal("phantom edge")
	}
	g.AddEdge(0, 5) // idempotent
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.AddNode(5) // idempotent
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	New().AddEdge(1, 1)
}

func TestAddPath(t *testing.T) {
	g := New()
	g.AddPath(0, 1, 2, 3)
	if g.NumEdges() != 3 || !g.HasEdge(1, 2) {
		t.Fatal("AddPath wrong")
	}
}

func TestNeighborsDegree(t *testing.T) {
	g := mustParse(t, "0-1 0-2 0-3 2-3")
	if got := g.Neighbors(0).Members(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatal("Degree wrong")
	}
	if !g.Neighbors(99).IsEmpty() {
		t.Fatal("Neighbors of non-node not empty")
	}
	if got := g.ClosedNeighborhood(1).Members(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("ClosedNeighborhood(1) = %v", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := mustParse(t, "2-1 0-2 0-1")
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustParse(t, "0-1")
	cp := g.Clone()
	cp.AddEdge(1, 2)
	if g.HasNode(2) || g.HasEdge(1, 2) {
		t.Fatal("Clone shares structure")
	}
	if !cp.HasEdge(0, 1) {
		t.Fatal("Clone lost an edge")
	}
}

func TestEqual(t *testing.T) {
	a := mustParse(t, "0-1 1-2")
	b := mustParse(t, "1-2 0-1")
	if !a.Equal(b) {
		t.Fatal("equal graphs not Equal")
	}
	c := mustParse(t, "0-1 1-2 0-2")
	if a.Equal(c) {
		t.Fatal("different edges Equal")
	}
	d := mustParse(t, "0-1 1-2 3")
	if a.Equal(d) {
		t.Fatal("different nodes Equal")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3 3-0")
	sub := g.InducedSubgraph(nodeset.Of(0, 1, 2, 9))
	if sub.HasNode(9) || sub.HasNode(3) {
		t.Fatal("InducedSubgraph kept wrong nodes")
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(2, 3) || sub.HasEdge(0, 3) {
		t.Fatal("InducedSubgraph edges wrong")
	}
}

func TestRemoveNodes(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3")
	h := g.RemoveNodes(nodeset.Of(1))
	if h.HasNode(1) || h.HasEdge(0, 1) {
		t.Fatal("RemoveNodes kept node 1")
	}
	if !h.HasEdge(2, 3) {
		t.Fatal("RemoveNodes dropped unrelated edge")
	}
	if h.Connected(0, 2) {
		t.Fatal("0 and 2 should be disconnected")
	}
}

func TestUnion(t *testing.T) {
	a := mustParse(t, "0-1 1-2")
	b := mustParse(t, "2-3 4")
	u := a.Union(b)
	if u.NumNodes() != 5 || u.NumEdges() != 3 {
		t.Fatalf("Union size wrong: %v", u)
	}
	if !u.HasEdge(0, 1) || !u.HasEdge(2, 3) || !u.HasNode(4) {
		t.Fatal("Union content wrong")
	}
	// Union must not mutate operands.
	if a.HasNode(3) || b.HasNode(0) {
		t.Fatal("Union mutated an operand")
	}
}

func TestComponents(t *testing.T) {
	g := mustParse(t, "0-1 1-2 3-4 5")
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if !comps[0].Equal(nodeset.Of(0, 1, 2)) || !comps[1].Equal(nodeset.Of(3, 4)) || !comps[2].Equal(nodeset.Of(5)) {
		t.Fatalf("components = %v", comps)
	}
	if !g.Connected(0, 2) || g.Connected(0, 3) || g.Connected(0, 99) {
		t.Fatal("Connected wrong")
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestDistancesBallDiameter(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3 3-4")
	d := g.Distances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	if got := g.Ball(2, 1).Members(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Ball(2,1) = %v", got)
	}
	if got := g.Ball(0, 0).Members(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Ball(0,0) = %v", got)
	}
	if g.Diameter() != 4 {
		t.Errorf("Diameter = %d, want 4", g.Diameter())
	}
	// Unreachable nodes have distance -1.
	g2 := mustParse(t, "0-1 2-3")
	if g2.Distances(0)[2] != -1 {
		t.Error("unreachable distance not -1")
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"a-b", "1-", "-1", "1-1", "x"} {
		if _, err := ParseEdgeList(bad); err == nil {
			t.Errorf("ParseEdgeList(%q) succeeded", bad)
		}
	}
	g, err := ParseEdgeList("0-1, 1-2; 5\n6-7")
	if err != nil {
		t.Fatalf("mixed separators: %v", err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 3 {
		t.Fatalf("parsed wrong graph: %v", g)
	}
}

func TestSortedIDs(t *testing.T) {
	g := mustParse(t, "5-2 9")
	if got := g.SortedIDs(); !reflect.DeepEqual(got, []int{2, 5, 9}) {
		t.Fatalf("SortedIDs = %v", got)
	}
}

// randomGraph draws a connected-ish random graph for property tests.
func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	g := NewWithNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

type genGraph struct{ G *Graph }

func (genGraph) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(9)
	return reflect.ValueOf(genGraph{G: randomGraph(r, n, 0.2+r.Float64()*0.5)})
}

func TestQuickUnionIdempotent(t *testing.T) {
	f := func(a genGraph) bool { return a.G.Union(a.G).Equal(a.G) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(a, b genGraph) bool { return a.G.Union(b.G).Equal(b.G.Union(a.G)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	f := func(a genGraph) bool {
		union := nodeset.Empty()
		total := 0
		for _, c := range a.G.Components() {
			total += c.Len()
			union = union.Union(c)
		}
		return union.Equal(a.G.Nodes()) && total == a.G.NumNodes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInducedSubgraphIsSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(a genGraph) bool {
		keep := nodeset.Empty()
		a.G.Nodes().ForEach(func(id int) bool {
			if r.Intn(2) == 0 {
				keep = keep.Add(id)
			}
			return true
		})
		sub := a.G.InducedSubgraph(keep)
		ok := sub.Nodes().SubsetOf(a.G.Nodes())
		for _, e := range sub.Edges() {
			if !a.G.HasEdge(e[0], e[1]) {
				return false
			}
		}
		// Every g-edge inside keep must survive.
		for _, e := range a.G.Edges() {
			if keep.Contains(e[0]) && keep.Contains(e[1]) && !sub.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

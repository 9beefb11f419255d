package graph

import (
	"testing"

	"rmt/internal/nodeset"
)

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddPath(0, 1, 2, 3)
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge survives removal")
	}
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("endpoints removed with the edge")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.RemoveEdge(0, 3) // absent: no-op
	g.RemoveEdge(7, 9) // unknown nodes: no-op
	if g.NumEdges() != 2 {
		t.Fatal("no-op removal changed the graph")
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	g.AddPath(0, 1, 2, 3)
	g.AddEdge(1, 3)
	clone := g.Clone()
	g.RemoveNode(1)
	if g.HasNode(1) {
		t.Fatal("node survives removal")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) || g.HasEdge(1, 3) {
		t.Fatal("incident edge survives removal")
	}
	if g.Neighbors(0).Contains(1) || g.Neighbors(2).Contains(1) {
		t.Fatal("neighbor sets still mention removed node")
	}
	if !g.Equal(clone.RemoveNodes(nodeset.Of(1))) {
		t.Fatal("RemoveNode disagrees with RemoveNodes")
	}
	// The pre-removal clone is unaffected (Sets are immutable values).
	if !clone.HasEdge(1, 2) {
		t.Fatal("clone mutated by RemoveNode on the original")
	}
	g.RemoveNode(1) // absent: no-op
}

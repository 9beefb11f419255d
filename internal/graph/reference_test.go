package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmt/internal/nodeset"
)

// The reference implementations below are the earlier constructors and
// renderers that the word-level ones replaced, kept to pin the new code to
// their exact results.

// refBall is Ball by BFS distances: every node at distance ≤ radius.
func refBall(g *Graph, v, radius int) nodeset.Set {
	if !g.HasNode(v) {
		return nodeset.Empty()
	}
	dist := g.Distances(v)
	out := nodeset.Empty()
	g.nodes.ForEach(func(id int) bool {
		if dist[id] >= 0 && dist[id] <= radius {
			out = out.Add(id)
		}
		return true
	})
	return out
}

// refInducedSubgraph is InducedSubgraph by one AddNode per kept node.
func refInducedSubgraph(g *Graph, keep nodeset.Set) *Graph {
	kept := g.nodes.Intersect(keep)
	sub := New()
	kept.ForEach(func(id int) bool {
		sub.AddNode(id)
		return true
	})
	kept.ForEach(func(id int) bool {
		sub.adj[id] = g.adj[id].Intersect(kept)
		return true
	})
	return sub
}

// refStar is the star with center v over leaves by one AddEdge per leaf.
func refStar(v int, leaves nodeset.Set) *Graph {
	star := New()
	star.AddNode(v)
	leaves.ForEach(func(u int) bool {
		star.AddEdge(v, u)
		return true
	})
	return star
}

// refString is String by one Fprintf per edge.
func refString(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "G(V=%s, E={", g.nodes)
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteString("})")
	return b.String()
}

// spreadGraph draws a G(n, p) graph whose nodes are relabelled onto IDs
// spread over [0, span), so rows span several words, plus a few isolated
// nodes.
func spreadGraph(r *rand.Rand, n, span int, p float64) *Graph {
	ids := r.Perm(span)[:n]
	g := New()
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

func sameGraph(a, b *Graph) error {
	if !a.Equal(b) || a.MaxID() != b.MaxID() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%v vs reference %v", a, b)
	}
	return nil
}

// TestWordLevelConstructorsMatchReference: Ball, InducedSubgraph, NewStar
// and String agree with their references over seeded random graphs with
// dense and spread IDs, for nodes and non-nodes, every radius from -1 to
// 4, and keep sets that include non-nodes.
func TestWordLevelConstructorsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + r.Intn(14)
		span := n
		if trial%2 == 1 {
			span = n + r.Intn(200)
		}
		g := spreadGraph(r, n, span, 0.1+0.6*r.Float64())
		if got, want := g.String(), refString(g); got != want {
			t.Fatalf("trial %d: String %q, reference %q", trial, got, want)
		}
		for probe := 0; probe < 4; probe++ {
			v := r.Intn(span + 2)
			radius := r.Intn(6) - 1
			if got, want := g.Ball(v, radius), refBall(g, v, radius); !got.Equal(want) {
				t.Fatalf("trial %d: Ball(%d, %d) = %v, reference %v in %v", trial, v, radius, got, want, g)
			}
			keep := nodeset.Empty()
			for i := r.Intn(n + 3); i > 0; i-- {
				keep = keep.Add(r.Intn(span + 70))
			}
			if probe == 0 {
				keep = g.Nodes()
			}
			sub, ref := g.InducedSubgraph(keep), refInducedSubgraph(g, keep)
			if err := sameGraph(sub, ref); err != nil {
				t.Fatalf("trial %d: InducedSubgraph(%v): %v", trial, keep, err)
			}
			if got, want := sub.String(), refString(ref); got != want {
				t.Fatalf("trial %d: induced String %q, reference %q", trial, got, want)
			}
		}
		g.Nodes().ForEach(func(v int) bool {
			star, ref := NewStar(v, g.Neighbors(v)), refStar(v, g.Neighbors(v))
			if err := sameGraph(star, ref); err != nil {
				t.Fatalf("trial %d: star of %d: %v", trial, v, err)
			}
			return true
		})
	}
}

// TestNewStarSharesRowsSafely: the star's rows are shared Sets, so editing
// the star must leave the graph whose row it borrowed untouched, and a
// self-loop leaf is rejected like AddEdge rejects it.
func TestNewStarSharesRowsSafely(t *testing.T) {
	g := mustParse(t, "0-1 0-2 0-3 2-3")
	star := NewStar(0, g.Neighbors(0))
	star.RemoveEdge(0, 1)
	star.AddEdge(1, 2)
	if !g.Neighbors(0).Equal(nodeset.Of(1, 2, 3)) || g.HasEdge(1, 2) {
		t.Fatalf("editing the star changed the source graph: %v", g)
	}
	if got, want := star.String(), "G(V={0, 1, 2, 3}, E={0-2, 0-3, 1-2})"; got != want {
		t.Fatalf("edited star = %s, want %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewStar accepted its center as a leaf")
		}
	}()
	NewStar(1, nodeset.Of(1, 2))
}

// refUnionInPlace is the accumulator G_M was folded with before
// UnionInduced: g grows by h's nodes and rows.
func refUnionInPlace(g, h *Graph) *Graph {
	if m := h.nodes.Max(); m >= 0 {
		g.ensure(m)
	}
	g.nodes = g.nodes.Union(h.nodes)
	h.nodes.ForEach(func(id int) bool {
		g.adj[id] = g.adj[id].Union(h.adj[id])
		return true
	})
	return g
}

// TestUnionInducedMatchesFoldAndInduce: on 1,000 seeded families of
// overlapping views — spread IDs and shared nodes — and keep sets that cut
// them and include non-nodes, UnionInduced equals folding the views with
// refUnionInPlace in order and inducing on keep: nodes, rows, row-slice
// length and rendering.
func TestUnionInducedMatchesFoldAndInduce(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 1000; trial++ {
		span := 2 + r.Intn(90)
		views := make([]*Graph, r.Intn(7))
		keep := nodeset.Empty()
		for i := range views {
			n := 1 + r.Intn(min(span, 9))
			views[i] = spreadGraph(r, n, span, 0.2+0.6*r.Float64())
			views[i].Nodes().ForEach(func(id int) bool {
				if r.Intn(4) > 0 {
					keep = keep.Add(id)
				}
				return true
			})
		}
		for i := r.Intn(3); i > 0; i-- {
			keep = keep.Add(r.Intn(span + 40))
		}
		joint := New()
		for _, h := range views {
			refUnionInPlace(joint, h)
		}
		ref := joint.InducedSubgraph(keep)
		got := UnionInduced(keep, views)
		if err := sameGraph(got, ref); err != nil {
			t.Fatalf("trial %d: UnionInduced(%v): %v", trial, keep, err)
		}
		if len(got.adj) != len(ref.adj) || got.String() != ref.String() {
			t.Fatalf("trial %d: %d rows %q, reference %d rows %q", trial, len(got.adj), got, len(ref.adj), ref)
		}
	}
}

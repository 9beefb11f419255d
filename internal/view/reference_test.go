package view

import (
	"fmt"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// refAdHoc is AdHoc with each star assembled by one AddEdge per neighbor,
// the construction NewStar replaced.
func refAdHoc(g *graph.Graph) map[int]*graph.Graph {
	views := make(map[int]*graph.Graph, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		star := graph.New()
		star.AddNode(v)
		g.Neighbors(v).ForEach(func(u int) bool {
			star.AddEdge(v, u)
			return true
		})
		views[v] = star
		return true
	})
	return views
}

// refRadius is Radius as it built each view on its own: one
// InducedSubgraph of one Ball per node, kept in a map.
func refRadius(g *graph.Graph, k int) map[int]*graph.Graph {
	views := make(map[int]*graph.Graph, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		views[v] = g.InducedSubgraph(g.Ball(v, k))
		return true
	})
	return views
}

// refConsistentWith is ConsistentWith by listing each view's edges and
// probing G per edge, the check the row-wise subset test replaced.
func refConsistentWith(views map[int]*graph.Graph, g *graph.Graph) error {
	for v, sub := range views {
		if !sub.HasNode(v) {
			return fmt.Errorf("view: γ(%d) omits its owner", v)
		}
		if !sub.Nodes().SubsetOf(g.Nodes()) {
			return fmt.Errorf("view: γ(%d) contains nodes outside G", v)
		}
		for _, e := range sub.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				return fmt.Errorf("view: γ(%d) contains non-edge %d-%d", v, e[0], e[1])
			}
		}
	}
	return nil
}

func randomSpreadGraph(r *rand.Rand) *graph.Graph {
	n := 1 + r.Intn(13)
	span := n
	if r.Intn(2) == 0 {
		span += r.Intn(200)
	}
	ids := r.Perm(span)[:n]
	g := graph.New()
	for _, id := range ids {
		g.AddNode(id)
	}
	p := 0.1 + 0.6*r.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

// TestAdHocAndConsistencyMatchReference: over seeded random graphs, every
// ad hoc star equals the AddEdge-built one (same graph, same MaxID), every
// radius-k view from 0 to 3 equals the one-ball-at-a-time build, walked in
// ID order by At and found by Of, every constructor records the domain a
// map scan would give, and ConsistentWith
// returns exactly the reference's error, both on the views as built and
// with one view broken by up to three non-edges or a foreign node.
func TestAdHocAndConsistencyMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 1000; trial++ {
		g := randomSpreadGraph(r)
		ref := refAdHoc(g)
		f := AdHoc(g)
		g.Nodes().ForEach(func(v int) bool {
			got, want := f.Of(v), ref[v]
			if !got.Equal(want) || got.MaxID() != want.MaxID() {
				t.Fatalf("trial %d: γ(%d) = %v, reference %v", trial, v, got, want)
			}
			return true
		})
		for k := 0; k <= 3; k++ {
			fk, ref := Radius(g, k), refRadius(g, k)
			if fk.Len() != len(ref) {
				t.Fatalf("trial %d: radius %d has %d views, reference %d", trial, k, fk.Len(), len(ref))
			}
			for i := 0; i < fk.Len(); i++ {
				v, got := fk.At(i)
				if want := ref[v]; !got.Equal(want) || fk.Of(v) != got {
					t.Fatalf("trial %d: radius-%d γ(%d) = %v, reference %v", trial, k, v, got, want)
				}
			}
		}
		if f.Of(g.MaxID()+1).NumNodes() != 0 || f.Of(-1).NumNodes() != 0 {
			t.Fatalf("trial %d: a non-node has a view", trial)
		}
		for _, fn := range []Function{f, Radius(g, r.Intn(4)), Full(g)} {
			if !fn.Domain().Equal(g.Nodes()) {
				t.Fatalf("trial %d: domain %v, want %v", trial, fn.Domain(), g.Nodes())
			}
			if err := fn.ConsistentWith(g); err != nil {
				t.Fatalf("trial %d: consistent views rejected: %v", trial, err)
			}
		}

		// Break one view of a copy: add a non-edge, or a node outside G.
		views := make(map[int]*graph.Graph, len(ref))
		balls := Radius(g, 1+r.Intn(2))
		for i := 0; i < balls.Len(); i++ {
			v, sub := balls.At(i)
			views[v] = sub
		}
		ids := g.SortedIDs()
		owner := ids[r.Intn(len(ids))]
		broken := views[owner].Clone()
		if r.Intn(3) == 0 {
			broken.AddEdge(owner, g.MaxID()+1+r.Intn(70))
		} else {
			for k := 1 + r.Intn(3); k > 0; k-- {
				u, w := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
				if u != w && !g.HasEdge(u, w) {
					broken.AddEdge(u, w)
				}
			}
			if broken.Equal(views[owner]) {
				continue
			}
		}
		views[owner] = broken
		bad, err := FromMap(views)
		if err != nil {
			t.Fatal(err)
		}
		want := refConsistentWith(views, g)
		got := bad.ConsistentWith(g)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("trial %d: ConsistentWith = %v, reference %v", trial, got, want)
		}
		domain := nodeset.Empty()
		for v := range views {
			domain = domain.Add(v)
		}
		if !bad.Domain().Equal(domain) {
			t.Fatalf("trial %d: FromMap domain %v, want %v", trial, bad.Domain(), domain)
		}
	}
}

// TestAllLocalStructuresMatchRestrict: over seeded random graphs and
// structures, every Z_v that AllLocalStructures builds through one index
// of 𝒵 prints as the scan restriction z.RestrictTo(V(γ(v))), at ad hoc,
// radius 1 and 2, and full knowledge.
func TestAllLocalStructuresMatchRestrict(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		g := randomSpreadGraph(r)
		ids := g.SortedIDs()
		sets := make([]nodeset.Set, r.Intn(6))
		for i := range sets {
			for k := r.Intn(4); k > 0; k-- {
				sets[i].MutateAdd(ids[r.Intn(len(ids))])
			}
		}
		z := adversary.FromSets(sets...)
		for _, f := range []Function{AdHoc(g), Radius(g, 1), Radius(g, 2), Full(g)} {
			lk := f.AllLocalStructures(z)
			if len(lk) != f.Len() {
				t.Fatalf("trial %d: %d local structures for %d views", trial, len(lk), f.Len())
			}
			for i := 0; i < f.Len(); i++ {
				v, view := f.At(i)
				got, want := lk[v].String(), z.RestrictTo(view.Nodes()).String()
				if got != want {
					t.Fatalf("trial %d: Z_%d = %s, scan %s", trial, v, got, want)
				}
			}
		}
	}
}

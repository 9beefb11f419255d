// Package view implements the Partial Knowledge Model's view functions γ.
//
// A view function assigns to each player v a subgraph γ(v) of the actual
// network that includes v: the part of the topology v knows. The joint view
// of a set S of players is the union graph γ(S) = (∪V_v, ∪E_v). Together
// with the adversary package's ⊕ operation this captures the paper's full
// partial-knowledge machinery: player v knows (γ(v), Z_v) where
// Z_v = Z^{V(γ(v))}.
//
// The two extremes of the model are provided as constructors: AdHoc (each
// player knows only the star of edges to its neighbors) and Full (each
// player knows the whole graph). Radius(k) interpolates between them with
// induced balls of hop radius k.
package view

import (
	"fmt"
	"slices"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// Function is a view function γ: node → known subgraph. Entries exist for
// every node of the underlying graph. Functions are immutable after
// construction.
type Function struct {
	nodes  []node      // one per node with a view, in increasing ID order
	domain nodeset.Set // the nodes that have views
}

// node is one entry of a view function: a node and its view.
type node struct {
	id   int
	view *graph.Graph
}

// FromMap builds a view function from an explicit node→subgraph map,
// validating that every view contains its owner.
func FromMap(views map[int]*graph.Graph) (Function, error) {
	f := Function{nodes: make([]node, 0, len(views))}
	for v, sub := range views {
		if !sub.HasNode(v) {
			return Function{}, fmt.Errorf("view: γ(%d) does not include node %d", v, v)
		}
		f.nodes = append(f.nodes, node{id: v, view: sub})
		f.domain.MutateAdd(v)
	}
	slices.SortFunc(f.nodes, func(a, b node) int { return a.id - b.id })
	return f, nil
}

// over returns the view function on g's nodes whose i-th view, in
// increasing ID order, is views[i].
func over(g *graph.Graph, views []*graph.Graph) Function {
	f := Function{nodes: make([]node, 0, len(views)), domain: g.Nodes()}
	g.Nodes().ForEach(func(v int) bool {
		f.nodes = append(f.nodes, node{id: v, view: views[len(f.nodes)]})
		return true
	})
	return f
}

// AdHoc returns the ad hoc view function on g: γ(v) is the star consisting
// of v, its neighbors, and the edges from v to them. This is the paper's
// "knowledge of the local neighborhood only" model. The n stars are built
// together from shared slabs (graph.Stars).
func AdHoc(g *graph.Graph) Function { return over(g, g.Stars()) }

// Radius returns the view function where γ(v) is the subgraph of g induced
// by the ball of hop radius k around v. Radius(g, 0) gives isolated
// self-knowledge; large k converges to Full(g). Note Radius(g, 1) is
// slightly stronger than AdHoc(g): it also contains edges between
// neighbors. The n balls are built together from shared slabs
// (graph.Balls), and a ball that reaches every node is g itself.
func Radius(g *graph.Graph, k int) Function { return over(g, g.Balls(k)) }

// AdHocAfter returns AdHoc(g) for a graph g that an edit made from the
// graph of prev, an ad hoc view function, where changed holds every node
// of g whose neighborhood the edit changed (added nodes included). A
// node's star is the node, N(v) and the edges between them, so only the
// stars of changed are built; every other node keeps prev's star, the
// same pointer. Both functions list their nodes in ID order, so prev is
// read in one merged pass. It also returns the nodes whose stars it
// built.
func AdHocAfter(g *graph.Graph, prev Function, changed nodeset.Set) (Function, nodeset.Set) {
	stars := g.StarsOf(changed)
	f := Function{nodes: make([]node, 0, g.NumNodes()), domain: g.Nodes()}
	i := 0
	g.Nodes().ForEach(func(v int) bool {
		if changed.Contains(v) {
			f.nodes = append(f.nodes, node{id: v, view: stars[0]})
			stars = stars[1:]
			return true
		}
		for i < len(prev.nodes) && prev.nodes[i].id < v {
			i++
		}
		if i == len(prev.nodes) || prev.nodes[i].id != v {
			panic(fmt.Sprintf("view: node %d has no star to carry over", v))
		}
		f.nodes = append(f.nodes, prev.nodes[i])
		return true
	})
	return f, changed
}

// Full returns the full-knowledge view function: γ(v) = g for every v.
func Full(g *graph.Graph) Function {
	f := Function{nodes: make([]node, 0, g.NumNodes()), domain: g.Nodes()}
	g.Nodes().ForEach(func(v int) bool {
		f.nodes = append(f.nodes, node{id: v, view: g})
		return true
	})
	return f
}

// rank returns the index of v's entry, or -1 when v has no view. Under
// IDs 0..n-1 it is v itself; any other ID set pays a binary search.
func (f Function) rank(v int) int {
	if uint(v) < uint(len(f.nodes)) && f.nodes[v].id == v {
		return v
	}
	if !f.domain.Contains(v) {
		return -1
	}
	i, _ := slices.BinarySearchFunc(f.nodes, v, func(e node, v int) int { return e.id - v })
	return i
}

// Of returns γ(v). Unknown nodes get an empty graph.
func (f Function) Of(v int) *graph.Graph {
	if i := f.rank(v); i >= 0 {
		return f.nodes[i].view
	}
	return graph.New()
}

// Len returns the number of nodes that have views.
func (f Function) Len() int { return len(f.nodes) }

// At returns the i-th node with a view, in increasing ID order, and its
// view, for 0 ≤ i < Len(): the way to walk γ without a lookup or a
// callback per node.
func (f Function) At(i int) (int, *graph.Graph) { return f.nodes[i].id, f.nodes[i].view }

// NodesOf returns V(γ(v)).
func (f Function) NodesOf(v int) nodeset.Set { return f.Of(v).Nodes() }

// Joint returns the joint view γ(S) = union of the views of the nodes of S.
func (f Function) Joint(s nodeset.Set) *graph.Graph {
	out := graph.New()
	s.ForEach(func(v int) bool {
		if i := f.rank(v); i >= 0 {
			out = out.Union(f.nodes[i].view)
		}
		return true
	})
	return out
}

// Domain returns the set of nodes that have views.
func (f Function) Domain() nodeset.Set { return f.domain }

// LocalStructure returns Z_v = Z^{V(γ(v))}: the restriction of the real
// structure to the nodes of v's view, paired with that domain.
func (f Function) LocalStructure(z adversary.Structure, v int) adversary.Restricted {
	return z.RestrictTo(f.NodesOf(v))
}

// AllLocalStructures precomputes Z_v for every node through one
// adversary.Index, so each Z_v reads only the maximal sets that meet
// V(γ(v)) rather than all of 𝒵.
func (f Function) AllLocalStructures(z adversary.Structure) adversary.LocalKnowledge {
	lk := make(adversary.LocalKnowledge, len(f.nodes))
	ix := adversary.NewIndex(z)
	for _, e := range f.nodes {
		lk[e.id] = ix.RestrictTo(e.view.Nodes())
	}
	return lk
}

// Refines reports whether f ≥ g in the paper's partial order: for every
// node, g's view is a subgraph of f's view (f knows at least as much).
func (f Function) Refines(g Function) bool {
	for _, e := range g.nodes {
		v, sub := e.id, e.view
		mine := f.Of(v)
		if !sub.Nodes().SubsetOf(mine.Nodes()) {
			return false
		}
		for _, e := range sub.Edges() {
			if !mine.HasEdge(e[0], e[1]) {
				return false
			}
		}
	}
	return true
}

// ConsistentWith reports whether every view is a genuine subgraph of g that
// contains its owner — the well-formedness condition of the model. Views
// are checked in node order, and each view row by row in node order with
// one word-wise subset test N_γ(v)(u) ⊆ N_G(u) (graph.NonEdge), which
// names the view's first non-edge in Edges() order.
func (f Function) ConsistentWith(g *graph.Graph) error { return f.ConsistentOn(g, f.domain) }

// ConsistentOn is ConsistentWith for the views of the members of s only.
func (f Function) ConsistentOn(g *graph.Graph, s nodeset.Set) error {
	for _, e := range f.nodes {
		if !s.Contains(e.id) {
			continue
		}
		if err := consistentView(g, e.id, e.view); err != nil {
			return err
		}
	}
	return nil
}

func consistentView(g *graph.Graph, v int, sub *graph.Graph) error {
	if !sub.HasNode(v) {
		return fmt.Errorf("view: γ(%d) omits its owner", v)
	}
	if sub == g {
		return nil
	}
	if !sub.Nodes().SubsetOf(g.Nodes()) {
		return fmt.Errorf("view: γ(%d) contains nodes outside G", v)
	}
	if u, w, ok := sub.NonEdge(g); ok {
		return fmt.Errorf("view: γ(%d) contains non-edge %d-%d", v, u, w)
	}
	return nil
}

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

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// Function is a view function γ: node → known subgraph. Entries exist for
// every node of the underlying graph. Functions are immutable after
// construction.
type Function struct {
	views  map[int]*graph.Graph
	domain nodeset.Set // the nodes that have views, recorded at construction
}

// FromMap builds a view function from an explicit node→subgraph map,
// validating that every view contains its owner.
func FromMap(views map[int]*graph.Graph) (Function, error) {
	for v, sub := range views {
		if !sub.HasNode(v) {
			return Function{}, fmt.Errorf("view: γ(%d) does not include node %d", v, v)
		}
	}
	cp := make(map[int]*graph.Graph, len(views))
	ids := make([]int, 0, len(views))
	for v, sub := range views {
		cp[v] = sub
		ids = append(ids, v)
	}
	return Function{views: cp, domain: nodeset.Of(ids...)}, nil
}

// AdHoc returns the ad hoc view function on g: γ(v) is the star consisting
// of v, its neighbors, and the edges from v to them. This is the paper's
// "knowledge of the local neighborhood only" model.
func AdHoc(g *graph.Graph) Function {
	views := make(map[int]*graph.Graph, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		views[v] = graph.NewStar(v, g.Neighbors(v))
		return true
	})
	return Function{views: views, domain: g.Nodes()}
}

// Radius returns the view function where γ(v) is the subgraph of g induced
// by the ball of hop radius k around v. Radius(g, 0) gives isolated
// self-knowledge; large k converges to Full(g). Note Radius(g, 1) is
// slightly stronger than AdHoc(g): it also contains edges between
// neighbors.
func Radius(g *graph.Graph, k int) Function {
	views := make(map[int]*graph.Graph, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		views[v] = g.InducedSubgraph(g.Ball(v, k))
		return true
	})
	return Function{views: views, domain: g.Nodes()}
}

// Full returns the full-knowledge view function: γ(v) = g for every v.
func Full(g *graph.Graph) Function {
	views := make(map[int]*graph.Graph, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		views[v] = g
		return true
	})
	return Function{views: views, domain: g.Nodes()}
}

// Of returns γ(v). Unknown nodes get an empty graph.
func (f Function) Of(v int) *graph.Graph {
	if sub, ok := f.views[v]; ok {
		return sub
	}
	return graph.New()
}

// NodesOf returns V(γ(v)).
func (f Function) NodesOf(v int) nodeset.Set { return f.Of(v).Nodes() }

// Joint returns the joint view γ(S) = union of the views of the nodes of S.
func (f Function) Joint(s nodeset.Set) *graph.Graph {
	out := graph.New()
	s.ForEach(func(v int) bool {
		if sub, ok := f.views[v]; ok {
			out = out.Union(sub)
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

// AllLocalStructures precomputes Z_v for every node.
func (f Function) AllLocalStructures(z adversary.Structure) adversary.LocalKnowledge {
	lk := make(adversary.LocalKnowledge, len(f.views))
	for v := range f.views {
		lk[v] = f.LocalStructure(z, v)
	}
	return lk
}

// Refines reports whether f ≥ g in the paper's partial order: for every
// node, g's view is a subgraph of f's view (f knows at least as much).
func (f Function) Refines(g Function) bool {
	for v, sub := range g.views {
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
// one word-wise subset test N_γ(v)(u) ⊆ N_G(u). Both graphs are symmetric,
// so the first row u that fails holds the view's first non-edge in Edges()
// order: u-w, with w the least member of N_γ(v)(u) \ N_G(u).
func (f Function) ConsistentWith(g *graph.Graph) error {
	var err error
	f.domain.ForEach(func(v int) bool {
		err = consistentView(g, v, f.views[v])
		return err == nil
	})
	return err
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
	var err error
	sub.Nodes().ForEach(func(u int) bool {
		if row := sub.Neighbors(u); !row.SubsetOf(g.Neighbors(u)) {
			w := row.Minus(g.Neighbors(u)).Min()
			err = fmt.Errorf("view: γ(%d) contains non-edge %d-%d", v, u, w)
		}
		return err == nil
	})
	return err
}

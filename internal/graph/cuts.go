package graph

import "rmt/internal/nodeset"

// This file implements vertex-separator machinery. All three cut notions of
// the paper (RMT-cut, adversary cover, RMT Z-pp cut) quantify over cuts C
// separating the dealer D from the receiver R, with a side condition on the
// connected component B of R in G − C. For all three, the side condition is
// monotone in the "uncovered" part of the cut, so the existential check
// reduces to enumerating connected candidate sets B containing R and taking
// C = N(B) (see DESIGN.md §4). The enumeration (Walk, walk.go) visits every
// connected induced subgraph containing a start node exactly once.

// Separates reports whether removing cut disconnects src from dst in g.
// A valid separator contains neither endpoint; if cut contains src or dst
// the function returns false.
func (g *Graph) Separates(cut nodeset.Set, src, dst int) bool {
	if cut.Contains(src) || cut.Contains(dst) {
		return false
	}
	if !g.HasNode(src) || !g.HasNode(dst) {
		return false
	}
	return !g.RemoveNodes(cut).Connected(src, dst)
}

// Boundary returns N(B) = the set of nodes outside B adjacent to some node
// of B.
func (g *Graph) Boundary(b nodeset.Set) nodeset.Set {
	var out nodeset.Set
	b.ForEach(func(v int) bool {
		out.MutateUnion(g.Neighbors(v))
		return true
	})
	out.MutateMinus(b)
	return out
}

// VertexConnectivity returns the size of a minimum src–dst vertex separator,
// or -1 if src and dst are adjacent or equal (no separator exists).
func (g *Graph) VertexConnectivity(src, dst int) int {
	if src == dst || g.HasEdge(src, dst) {
		return -1
	}
	// Menger via max vertex-disjoint paths: unit-capacity node splitting,
	// implemented as repeated augmenting DFS on the split digraph.
	n := g.MaxID() + 1
	// Node v splits into in-node 2v and out-node 2v+1 with capacity edge
	// 2v -> 2v+1 (capacity 1, except src/dst: infinite, modeled by never
	// saturating). Edges u-v become 2u+1 -> 2v and 2v+1 -> 2u.
	type edge struct {
		to  int
		cap int
		rev int
	}
	adj := make([][]edge, 2*n)
	addEdge := func(a, b, cap int) {
		adj[a] = append(adj[a], edge{to: b, cap: cap, rev: len(adj[b])})
		adj[b] = append(adj[b], edge{to: a, cap: 0, rev: len(adj[a]) - 1})
	}
	const inf = 1 << 30
	g.nodes.ForEach(func(v int) bool {
		cap := 1
		if v == src || v == dst {
			cap = inf
		}
		addEdge(2*v, 2*v+1, cap)
		return true
	})
	for _, e := range g.Edges() {
		addEdge(2*e[0]+1, 2*e[1], inf)
		addEdge(2*e[1]+1, 2*e[0], inf)
	}
	source, sink := 2*src+1, 2*dst
	flow := 0
	for {
		visited := make([]bool, 2*n)
		var dfs func(v int) bool
		dfs = func(v int) bool {
			if v == sink {
				return true
			}
			visited[v] = true
			for i := range adj[v] {
				e := &adj[v][i]
				if e.cap > 0 && !visited[e.to] && dfs(e.to) {
					e.cap--
					adj[e.to][e.rev].cap++
					return true
				}
			}
			return false
		}
		if !dfs(source) {
			break
		}
		flow++
		if flow > n {
			break
		}
	}
	return flow
}

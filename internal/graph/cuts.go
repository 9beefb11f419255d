package graph

import "rmt/internal/nodeset"

// This file implements vertex-separator machinery. All three cut notions of
// the paper (RMT-cut, adversary cover, RMT Z-pp cut) quantify over cuts C
// separating the dealer D from the receiver R, with a side condition on the
// connected component B of R in G − C. For all three, the side condition is
// monotone in the "uncovered" part of the cut, so the existential check
// reduces to enumerating connected candidate sets B containing R and taking
// C = N(B) (see DESIGN.md §4). The enumeration (Walk, walk.go) visits every
// connected induced subgraph containing a start node exactly once; the
// Set-valued methods below are adapters over it.

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

// ConnectedSets enumerates every connected node set B of g with start ∈ B
// and B ∩ banned = ∅, calling fn exactly once per set. Enumeration stops
// early if fn returns false. The start node must exist and not be banned,
// else nothing is enumerated. fn may retain its argument: it is a fresh
// Set built from the walk's row (see Walk for the algorithm).
func (g *Graph) ConnectedSets(start int, banned nodeset.Set, fn func(b nodeset.Set) bool) {
	wk := g.NewWalk()
	wk.connectedSets(start, banned, func(b, _ []uint64) bool { return fn(nodeset.FromWords(b)) })
}

// ReceiverSideCandidates enumerates, for a dealer D and receiver R, every
// connected set B with R ∈ B, D ∉ B and D ∉ N(B), i.e. every candidate
// "receiver side" of a D–R cut C = N(B) that excludes the dealer. For each
// candidate it calls fn(B, N(B)); fn returning false stops the enumeration.
// fn may retain its arguments: they are fresh Sets built from the walk's
// rows (Walk.ReceiverSides is the allocation-free form).
//
// Every D–R separator C' (with comp_R(G−C') = B) satisfies N(B) ⊆ C', so
// checking a cut predicate that is monotone-decreasing in the cut on all
// (B, N(B)) pairs is exhaustive over all cuts.
func (g *Graph) ReceiverSideCandidates(dealer, receiver int, fn func(b, cut nodeset.Set) bool) {
	wk := g.NewWalk()
	wk.ReceiverSides(dealer, receiver, func(b, cut []uint64) bool {
		return fn(nodeset.FromWords(b), nodeset.FromWords(cut))
	})
}

// MinimalSeparators returns all minimal vertex separators between src and
// dst (sets C with src,dst ∉ C such that C disconnects them and no proper
// subset does). Sorted canonically. For adjacent src/dst there are none.
func (g *Graph) MinimalSeparators(src, dst int) []nodeset.Set {
	if g.HasEdge(src, dst) || !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	seen := map[string]nodeset.Set{}
	g.ReceiverSideCandidates(src, dst, func(b, cut nodeset.Set) bool {
		if cut.IsEmpty() {
			return true // dst's whole component excludes src: not a cut
		}
		// cut = N(B) separates src from dst iff src is not reachable from
		// dst without it, which holds by construction when comp(dst) = B;
		// N(B) of a non-closed B still separates (every dst-side path
		// leaves B through N(B)), but may not be minimal. Minimalize it.
		min := g.minimalizeSeparator(cut, src, dst)
		seen[min.Key()] = min
		return true
	})
	out := make([]nodeset.Set, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	sortSets(out)
	return out
}

// minimalizeSeparator removes redundant nodes from a separator while
// preserving the separation property.
func (g *Graph) minimalizeSeparator(cut nodeset.Set, src, dst int) nodeset.Set {
	for _, v := range cut.Members() {
		smaller := cut.Remove(v)
		if g.Separates(smaller, src, dst) {
			cut = smaller
		}
	}
	return cut
}

// VertexConnectivity returns the size of a minimum src–dst vertex separator,
// or -1 if src and dst are adjacent or equal (no separator exists).
func (g *Graph) VertexConnectivity(src, dst int) int {
	if src == dst || g.HasEdge(src, dst) {
		return -1
	}
	// Menger via max vertex-disjoint paths: unit-capacity node splitting,
	// implemented as repeated augmenting DFS on the split digraph.
	n := len(g.adj)
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

func sortSets(sets []nodeset.Set) {
	for i := 1; i < len(sets); i++ {
		for j := i; j > 0 && sets[j].Compare(sets[j-1]) < 0; j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
}

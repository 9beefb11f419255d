package graph

import "rmt/internal/nodeset"

// Path is a simple path represented as the sequence of node IDs it visits.
type Path []int

// Clone returns a copy of p.
func (p Path) Clone() Path {
	cp := make(Path, len(p))
	copy(cp, p)
	return cp
}

// Head returns the first node of p. It panics on an empty path.
func (p Path) Head() int { return p[0] }

// Tail returns the last node of p, as in the paper's tail(p). It panics on
// an empty path.
func (p Path) Tail() int { return p[len(p)-1] }

// Contains reports whether node v appears on p.
func (p Path) Contains(v int) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// Admissible is Protocol 1's admission check: player self accepts trail p
// delivered by neighbor from only if p is non-empty, avoids self and ends
// at from. Pinning the tail to the authenticated channel is what ties every
// forged trail to a corrupted node (Theorem 4).
func (p Path) Admissible(self, from int) bool {
	return len(p) > 0 && !p.Contains(self) && p.Tail() == from
}

// Append returns the concatenation p || v from the paper, as a fresh path.
func (p Path) Append(v int) Path {
	cp := make(Path, len(p), len(p)+1)
	copy(cp, p)
	return append(cp, v)
}

// Set returns the set of nodes on p.
func (p Path) Set() nodeset.Set { return nodeset.FromSlice([]int(p)) }

// Equal reports whether p and q visit the same nodes in the same order.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Interior returns the set of nodes on p excluding its two endpoints.
// Paths with fewer than three nodes have an empty interior.
func (p Path) Interior() nodeset.Set {
	s := nodeset.Empty()
	for i := 1; i < len(p)-1; i++ {
		s = s.Add(p[i])
	}
	return s
}

// ValidIn reports whether p is a simple path of g: at least one node, all
// nodes present in g, consecutive nodes adjacent, and no repeats.
func (p Path) ValidIn(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	seen := nodeset.Empty()
	for i, v := range p {
		if !g.HasNode(v) || seen.Contains(v) {
			return false
		}
		seen = seen.Add(v)
		if i > 0 && !g.HasEdge(p[i-1], v) {
			return false
		}
	}
	return true
}

// AllPaths enumerates every simple path from src to dst in g, in a
// deterministic order, calling fn on each. The path slice passed to fn is
// reused between calls; fn must Clone it to retain it. Enumeration stops
// early if fn returns false. Paths through nodes in the avoid set are
// skipped (src and dst must not be in avoid).
func (g *Graph) AllPaths(src, dst int, avoid nodeset.Set, fn func(p Path) bool) {
	g.AllPathsBounded(src, dst, avoid, 0, fn)
}

// AllPathsBounded is AllPaths restricted to paths of at most maxNodes
// nodes (0 means unbounded). The depth bound prunes the search itself, so
// the cost is that of the bounded path space, not the full one.
func (g *Graph) AllPathsBounded(src, dst int, avoid nodeset.Set, maxNodes int, fn func(p Path) bool) {
	if !g.HasNode(src) || !g.HasNode(dst) || avoid.Contains(src) || avoid.Contains(dst) {
		return
	}
	cur := Path{src}
	onPath := nodeset.Of(src) // exclusively owned: mutated in place below
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == dst {
			return fn(cur)
		}
		if maxNodes > 0 && len(cur) >= maxNodes {
			return true // no room left to reach dst
		}
		cont := true
		g.Neighbors(v).ForEach(func(w int) bool {
			if onPath.Contains(w) || avoid.Contains(w) {
				return true
			}
			cur = append(cur, w)
			onPath.MutateAdd(w)
			cont = rec(w)
			onPath.MutateRemove(w)
			cur = cur[:len(cur)-1]
			return cont
		})
		return cont
	}
	rec(src)
}

// BoundedPathSpan returns the union of the nodes of all src→dst simple
// paths with at most maxNodes nodes (0 = unbounded: all paths).
func (g *Graph) BoundedPathSpan(src, dst int, maxNodes int) nodeset.Set {
	span := nodeset.Empty()
	g.AllPathsBounded(src, dst, nodeset.Empty(), maxNodes, func(p Path) bool {
		span = span.Union(p.Set())
		return true
	})
	return span
}

// CountPaths returns the number of simple src→dst paths avoiding the given
// set, up to the limit (0 means no limit). Counting stops at the limit.
func (g *Graph) CountPaths(src, dst int, avoid nodeset.Set, limit int) int {
	n := 0
	g.AllPaths(src, dst, avoid, func(Path) bool {
		n++
		return limit == 0 || n < limit
	})
	return n
}

// ShortestPath returns a shortest src→dst path avoiding the given node set,
// or nil if none exists.
func (g *Graph) ShortestPath(src, dst int, avoid nodeset.Set) Path {
	if !g.HasNode(src) || !g.HasNode(dst) || avoid.Contains(src) || avoid.Contains(dst) {
		return nil
	}
	if src == dst {
		return Path{src}
	}
	prev := make([]int, g.MaxID()+1)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		found := false
		g.Neighbors(u).ForEach(func(w int) bool {
			if avoid.Contains(w) || prev[w] != -1 {
				return true
			}
			prev[w] = u
			if w == dst {
				found = true
				return false
			}
			queue = append(queue, w)
			return true
		})
		if found {
			break
		}
	}
	if prev[dst] == -1 {
		return nil
	}
	var rev Path
	for v := dst; v != src; v = prev[v] {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// HasHonestPath reports whether some src→dst path avoids the corrupted set.
func (g *Graph) HasHonestPath(src, dst int, corrupted nodeset.Set) bool {
	return g.ShortestPath(src, dst, corrupted) != nil
}

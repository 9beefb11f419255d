// Package graph implements the undirected-graph substrate for the RMT
// library: adjacency rows kept in node order, induced subgraphs, graph unions
// (the joint-view operation γ(S) on topologies), connectivity queries,
// simple-path enumeration between the dealer and the receiver, and
// vertex-separator (cut) queries and enumeration.
//
// Graphs are mutable while being assembled (AddNode/AddEdge) and treated as
// immutable afterwards; all derived-graph operations (InducedSubgraph,
// RemoveNodes, Union, ...) return fresh graphs. Node identifiers are small
// non-negative integers; a graph may have "holes" in its ID space (a node
// set that is not a prefix range), which arises naturally for subgraphs and
// views.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"rmt/internal/nodeset"
)

// Graph is an undirected graph over integer node IDs. It keeps one
// adjacency row per node, in increasing ID order, so its tables grow with
// |V| and not with the largest ID; rank finds a node's row.
type Graph struct {
	nodes nodeset.Set
	rows  []row
}

// row is one node's adjacency row: the node and N(node).
type row struct {
	id  int
	adj nodeset.Set
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// NewWithNodes returns a graph with nodes {0..n-1} and no edges.
func NewWithNodes(n int) *Graph {
	n = max(n, 0)
	rows := make([]row, n)
	for i := range rows {
		rows[i].id = i
	}
	return &Graph{nodes: nodeset.Universe(n), rows: rows}
}

// search returns the index of the first row whose node is v or above.
// slices.BinarySearchFunc does the same, but its comparison closure is
// not inlined here: Neighbors over a 40-node graph on IDs below 3,000
// took 2.5× as long with it (go1.24, amd64).
func (g *Graph) search(v int) int {
	lo, hi := 0, len(g.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.rows[m].id < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// rank returns the index of v's row, or -1 when v is not a node. Under
// IDs 0..n-1 it is v itself; any other ID set pays a binary search.
func (g *Graph) rank(v int) int {
	if uint(v) < uint(len(g.rows)) && g.rows[v].id == v {
		return v
	}
	return g.sparseRank(v)
}

// sparseRank is rank off the dense path, kept apart so that rank inlines
// into the row loops.
func (g *Graph) sparseRank(v int) int {
	if !g.nodes.Contains(v) {
		return -1
	}
	return g.search(v)
}

// AddNode adds a node with the given ID. Adding an existing node is a no-op.
func (g *Graph) AddNode(id int) {
	if id < 0 {
		panic("graph: negative node ID")
	}
	if g.nodes.Contains(id) {
		return
	}
	g.nodes = g.nodes.Add(id)
	g.rows = slices.Insert(g.rows, g.search(id), row{id: id})
}

// starWords is the slab room a star's node set {v} ∪ leaves takes.
func starWords(v int, leaves nodeset.Set) int {
	return max(leaves.Width(), v/wordBits+1)
}

// NewStar returns the star with center v and the given leaves: nodes
// {v} ∪ leaves and an edge from v to each leaf. The graph shares leaves as
// v's row and one {v} row among all leaves (Sets are immutable, as in
// Clone), so the star costs a constant number of allocations however many
// leaves it has, and its table holds |leaves|+1 rows.
func NewStar(v int, leaves nodeset.Set) *Graph {
	if leaves.Contains(v) {
		panic("graph: self-loop")
	}
	sl := nodeset.NewSlab(starWords(v, leaves) + v/wordBits + 1)
	g := &Graph{}
	g.star(&sl, make([]row, leaves.Len()+1), v, leaves, sl.With(nodeset.Set{}, v))
	return g
}

// Stars returns the star of every node of g, in increasing ID order:
// element i equals NewStar(v, N(v)) for the i-th node v. It is StarsOf
// over every node.
func (g *Graph) Stars() []*Graph { return g.StarsOf(g.nodes) }

// StarsOf returns the star of every node of s ⊆ V(g), in increasing ID
// order: element i equals NewStar(v, N(v)) for the i-th member v of s.
// The stars' node sets come from one word slab, their {v} leaf rows from
// nodeset.Singletons, their tables from one row slab and the graphs
// themselves from one slab, so the stars cost a constant number of
// allocations; each center row is g's own row.
func (g *Graph) StarsOf(s nodeset.Set) []*Graph {
	words, rows, n := 0, 0, 0
	for _, r := range g.rows {
		if s.Contains(r.id) {
			words += starWords(r.id, r.adj)
			rows += r.adj.Len() + 1
			n++
		}
	}
	sl := nodeset.NewSlab(words)
	rs := make(rowSlab, rows)
	centers := nodeset.Singletons(s)
	stars := make([]Graph, n)
	out := make([]*Graph, n)
	i := 0
	for _, r := range g.rows {
		if s.Contains(r.id) {
			stars[i].star(&sl, rs.take(r.adj.Len()+1), r.id, r.adj, centers[i])
			out[i] = &stars[i]
			i++
		}
	}
	return out
}

// star makes g the star with center v over leaves (v ∉ leaves), whose
// leaves share center = {v} as their row: its node set is carved from sl
// and its table is rows, which holds |leaves|+1 entries.
func (g *Graph) star(sl *nodeset.Slab, rows []row, v int, leaves, center nodeset.Set) {
	g.nodes = sl.With(leaves, v)
	g.rows = rows
	i, placed := 0, false
	for w := 0; w < leaves.Width(); w++ {
		for x := leaves.Word(w); x != 0; x &= x - 1 {
			u := w*wordBits + bits.TrailingZeros64(x)
			if !placed && u > v {
				rows[i] = row{id: v, adj: leaves}
				i++
				placed = true
			}
			rows[i] = row{id: u, adj: center}
			i++
		}
	}
	if !placed {
		rows[i] = row{id: v, adj: leaves}
	}
}

// AddEdge adds the undirected edge {u, v}, adding the endpoints as needed.
// Self-loops are rejected because channels connect distinct parties.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	g.AddNode(u)
	g.AddNode(v)
	ru, rv := g.rank(u), g.rank(v)
	g.rows[ru].adj = g.rows[ru].adj.Add(v)
	g.rows[rv].adj = g.rows[rv].adj.Add(u)
}

// RemoveEdge deletes the undirected edge {u, v}. The endpoints remain
// nodes of the graph; removing an absent edge is a no-op. Like AddEdge,
// this is an assembly-time mutation: derived graphs built from g earlier
// are unaffected (Sets are immutable values), but callers sharing g itself
// must clone first.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	ru, rv := g.rank(u), g.rank(v)
	g.rows[ru].adj = g.rows[ru].adj.Remove(v)
	g.rows[rv].adj = g.rows[rv].adj.Remove(u)
}

// RemoveNode deletes the node and every edge incident to it, in place.
// Removing an absent node is a no-op. See RemoveEdge for sharing caveats;
// RemoveNodes is the non-mutating form.
func (g *Graph) RemoveNode(id int) {
	r := g.rank(id)
	if r < 0 {
		return
	}
	g.rows[r].adj.ForEach(func(v int) bool {
		rv := g.rank(v)
		g.rows[rv].adj = g.rows[rv].adj.Remove(id)
		return true
	})
	g.rows = slices.Delete(g.rows, r, r+1)
	g.nodes = g.nodes.Remove(id)
}

// AddPath adds edges forming the path ids[0] - ids[1] - ... - ids[k-1].
func (g *Graph) AddPath(ids ...int) {
	for i := 1; i < len(ids); i++ {
		g.AddEdge(ids[i-1], ids[i])
	}
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id int) bool { return g.nodes.Contains(id) }

// HasEdge reports whether {u, v} is an edge of g.
func (g *Graph) HasEdge(u, v int) bool { return g.Neighbors(u).Contains(v) }

// Nodes returns the node set of g.
func (g *Graph) Nodes() nodeset.Set { return g.nodes }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.rows) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, r := range g.rows {
		total += r.adj.Len()
	}
	return total / 2
}

// MaxID returns the largest node ID, or -1 for the empty graph.
func (g *Graph) MaxID() int { return g.nodes.Max() }

// Neighbors returns N(v), the neighborhood of v (not including v).
func (g *Graph) Neighbors(v int) nodeset.Set {
	if r := g.rank(v); r >= 0 {
		return g.rows[r].adj
	}
	return nodeset.Empty()
}

// ClosedNeighborhood returns N(v) ∪ {v}.
func (g *Graph) ClosedNeighborhood(v int) nodeset.Set {
	return g.Neighbors(v).Add(v)
}

// Degree returns |N(v)|.
func (g *Graph) Degree(v int) int { return g.Neighbors(v).Len() }

// Edges returns all edges as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for _, r := range g.rows {
		r.adj.ForEach(func(v int) bool {
			if r.id < v {
				out = append(out, [2]int{r.id, v})
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	// Sets are immutable values; copying the row headers is enough.
	return &Graph{nodes: g.nodes, rows: slices.Clone(g.rows)}
}

// NonEdge returns an edge u-w of h that is not an edge of g — the first
// in Edges() order — and ok = false when every edge of h is one of g. It
// tests h's rows in ID order, one word-wise subset test N_h(u) ⊆ N_g(u)
// each: both graphs are symmetric, so the first row u that fails holds
// that edge, at w = min(N_h(u) \ N_g(u)).
func (h *Graph) NonEdge(g *Graph) (u, w int, ok bool) {
	for _, r := range h.rows {
		if adj := g.Neighbors(r.id); !r.adj.SubsetOf(adj) {
			return r.id, r.adj.Minus(adj).Min(), true
		}
	}
	return 0, 0, false
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if !g.nodes.Equal(h.nodes) {
		return false
	}
	// Equal node sets give equal row orders.
	for i, r := range g.rows {
		if !r.adj.Equal(h.rows[i].adj) {
			return false
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced by keep ∩ V(g): the nodes in
// keep that exist in g, and every edge of g with both endpoints kept. A row
// of g that lies inside the kept set is shared rather than copied; the
// others are masked in one word slab.
func (g *Graph) InducedSubgraph(keep nodeset.Set) *Graph {
	kept := g.nodes.Intersect(keep)
	sub := &Graph{nodes: kept}
	if n := kept.Len(); n > 0 {
		sl := nodeset.NewSlab(g.inducedWords(kept))
		sub.rows = make([]row, n)
		g.induce(&sl, sub.rows, kept)
	}
	return sub
}

// inducedWords is the slab room induce takes for kept: every row of a
// kept node that leaves kept is masked to it.
func (g *Graph) inducedWords(kept nodeset.Set) int {
	words := 0
	for w := 0; w < kept.Width(); w++ {
		for x := kept.Word(w); x != 0; x &= x - 1 {
			adj := g.rows[g.rank(w*wordBits+bits.TrailingZeros64(x))].adj
			if !adj.SubsetOf(kept) {
				words += min(adj.Width(), kept.Width())
			}
		}
	}
	return words
}

// induce fills rows, one per member of kept ⊆ V(g), with g's rows induced
// on kept: a row inside kept is shared, any other is masked in sl.
func (g *Graph) induce(sl *nodeset.Slab, rows []row, kept nodeset.Set) {
	i := 0
	for w := 0; w < kept.Width(); w++ {
		for x := kept.Word(w); x != 0; x &= x - 1 {
			u := w*wordBits + bits.TrailingZeros64(x)
			adj := g.rows[g.rank(u)].adj
			if !adj.SubsetOf(kept) {
				adj = sl.Intersect(adj, kept)
			}
			rows[i] = row{id: u, adj: adj}
			i++
		}
	}
}

// Balls returns, for every node v of g in increasing ID order, the
// subgraph of g induced by Ball(v, radius): element i equals
// g.InducedSubgraph(g.Ball(v, radius)) for the i-th node v, and is g
// itself when the ball holds every node, as under full knowledge. Each
// ball grows in one scratch set, once to size the slabs and once to fill
// them: the other balls' node sets and masked rows come from one word
// slab, their tables from one row slab and the graphs from one slab, so
// the n subgraphs cost a constant number of allocations. Rows inside a
// ball are g's own.
func (g *Graph) Balls(radius int) []*Graph {
	var sc ballScratch
	words, rows := 0, 0
	for _, r := range g.rows {
		if ball := sc.grow(g, r.id, radius); !ball.Equal(g.nodes) {
			words += ball.Width() + g.inducedWords(ball)
			rows += ball.Len()
		}
	}
	sl := nodeset.NewSlab(words)
	rs := make(rowSlab, rows)
	balls := make([]Graph, len(g.rows))
	out := make([]*Graph, len(g.rows))
	for i, r := range g.rows {
		ball := sc.grow(g, r.id, radius)
		if ball.Equal(g.nodes) {
			out[i] = g
			continue
		}
		b := &balls[i]
		b.nodes = sl.Copy(ball)
		b.rows = rs.take(ball.Len())
		g.induce(&sl, b.rows, b.nodes)
		out[i] = b
	}
	return out
}

// rowSlab hands out row tables from one slice allocated up front, as
// nodeset.Slab does words; each table is capped at its length.
type rowSlab []row

// take returns the next n rows of the slab.
func (rs *rowSlab) take(n int) []row {
	t := (*rs)[:n:n]
	*rs = (*rs)[n:]
	return t
}

// RemoveNodes returns the subgraph induced by V(g) \ drop.
func (g *Graph) RemoveNodes(drop nodeset.Set) *Graph {
	return g.InducedSubgraph(g.nodes.Minus(drop))
}

// Union returns the graph (V(g) ∪ V(h), E(g) ∪ E(h)). This is the topology
// half of the joint-view operation γ(S) from the paper.
func (g *Graph) Union(h *Graph) *Graph {
	return UnionInduced(g.nodes.Union(h.nodes), []*Graph{g, h})
}

// UnionInduced returns the union of graphs induced on keep: the nodes of
// keep that lie in some graph, and every edge of some graph with both
// endpoints kept. It is the fold of Union over graphs followed by
// InducedSubgraph(keep), built in one pass over the graphs' rows: the
// table holds one row per kept node, and each kept row is carved once, at
// its final width, from one word slab and masked in place; the union
// itself is never materialized.
func UnionInduced(keep nodeset.Set, graphs []*Graph) *Graph {
	var all nodeset.Set
	for _, h := range graphs {
		all.MutateUnion(h.nodes)
	}
	kept := all.Intersect(keep)
	sub := &Graph{nodes: kept}
	n := kept.Len()
	if n == 0 {
		return sub
	}
	sub.rows = make([]row, n)
	i := 0
	kept.ForEach(func(u int) bool {
		sub.rows[i].id = u
		i++
		return true
	})
	// A kept row is as wide as its widest contributing row.
	width := make([]int, n)
	words := 0
	for _, h := range graphs {
		for _, r := range h.rows {
			if k := sub.rank(r.id); k >= 0 && r.adj.Width() > width[k] {
				words += r.adj.Width() - width[k]
				width[k] = r.adj.Width()
			}
		}
	}
	sl := nodeset.NewSlab(words)
	for k := range sub.rows {
		sub.rows[k].adj = sl.Reserve(width[k])
	}
	for _, h := range graphs {
		for _, r := range h.rows {
			if k := sub.rank(r.id); k >= 0 {
				sub.rows[k].adj.MutateUnion(r.adj)
			}
		}
	}
	// Every row lies inside all, so masking it to kept drops all \ keep.
	if drop := all.Minus(keep); !drop.IsEmpty() {
		for k := range sub.rows {
			sub.rows[k].adj.MutateMinus(drop)
		}
	}
	return sub
}

// ComponentOf returns the node set of the connected component containing v,
// or the empty set if v is not a node of g.
func (g *Graph) ComponentOf(v int) nodeset.Set {
	if !g.HasNode(v) {
		return nodeset.Empty()
	}
	visited := nodeset.Of(v)
	frontier := []int{v}
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		g.Neighbors(u).ForEach(func(w int) bool {
			if !visited.Contains(w) {
				visited = visited.Add(w)
				frontier = append(frontier, w)
			}
			return true
		})
	}
	return visited
}

// Components returns the connected components of g, each as a node set,
// ordered by their minimum node ID.
func (g *Graph) Components() []nodeset.Set {
	var out []nodeset.Set
	remaining := g.nodes
	for !remaining.IsEmpty() {
		c := g.ComponentOf(remaining.Min())
		out = append(out, c)
		remaining = remaining.Minus(c)
	}
	return out
}

// Connected reports whether u and v lie in the same component.
func (g *Graph) Connected(u, v int) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	return g.ComponentOf(u).Contains(v)
}

// IsConnected reports whether g is connected (the empty graph is connected).
func (g *Graph) IsConnected() bool {
	if g.nodes.IsEmpty() {
		return true
	}
	return g.ComponentOf(g.nodes.Min()).Equal(g.nodes)
}

// Distances returns BFS hop distances from src; unreachable nodes (and
// non-nodes) map to -1. The result slice is indexed by node ID and has
// length MaxID()+1.
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.MaxID()+1)
	for i := range dist {
		dist[i] = -1
	}
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.Neighbors(u).ForEach(func(w int) bool {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
			return true
		})
	}
	return dist
}

// Ball returns the set of nodes within the given hop radius of v,
// including v itself. It grows the ball one BFS layer at a time: each
// layer is the union of its predecessor's neighbor rows minus the ball.
func (g *Graph) Ball(v, radius int) nodeset.Set {
	if !g.HasNode(v) {
		return nodeset.Empty()
	}
	var sc ballScratch
	return sc.grow(g, v, radius)
}

// ballScratch holds the sets a ball grows in, reused from ball to ball.
type ballScratch struct{ ball, frontier, next nodeset.Set }

// grow returns the ball of the given radius around node v of g (empty
// for a negative radius). The result is the scratch's own set: it is
// overwritten by the next grow.
func (sc *ballScratch) grow(g *Graph, v, radius int) nodeset.Set {
	sc.ball.MutateClear()
	if radius < 0 {
		return sc.ball
	}
	sc.ball.MutateAdd(v)
	sc.frontier.MutateClear()
	sc.frontier.MutateAdd(v)
	for d := 0; d < radius; d++ {
		sc.next.MutateClear()
		for w := 0; w < sc.frontier.Width(); w++ {
			for x := sc.frontier.Word(w); x != 0; x &= x - 1 {
				sc.next.MutateUnion(g.rows[g.rank(w*wordBits+bits.TrailingZeros64(x))].adj)
			}
		}
		sc.next.MutateMinus(sc.ball)
		if sc.next.IsEmpty() {
			break
		}
		sc.ball.MutateUnion(sc.next)
		sc.frontier, sc.next = sc.next, sc.frontier
	}
	return sc.ball
}

// Diameter returns the maximum finite BFS distance over all node pairs,
// or 0 for graphs with fewer than two nodes.
func (g *Graph) Diameter() int {
	max := 0
	g.nodes.ForEach(func(u int) bool {
		for _, d := range g.Distances(u) {
			if d > max {
				max = d
			}
		}
		return true
	})
	return max
}

// String renders the graph as "G(V={a, b}, E={a-b, ...})" for debugging
// and for claim keys.
func (g *Graph) String() string { return string(g.AppendString(nil)) }

// AppendString appends the String rendering of g to dst and returns the
// extended slice.
func (g *Graph) AppendString(dst []byte) []byte {
	dst = append(dst, "G(V="...)
	dst = g.nodes.AppendString(dst)
	dst = append(dst, ", E={"...)
	dst = g.AppendEdges(dst, ", ")
	return append(dst, "})"...)
}

// AppendEdges appends the edges of g as "u-v" pairs (u < v) in Edges order,
// separated by sep, to dst and returns the extended slice. It walks the
// rows word by word and renders each row's "u-" once.
func (g *Graph) AppendEdges(dst []byte, sep string) []byte {
	start := len(dst)
	var ubuf [24]byte
	for _, r := range g.rows {
		lo := r.id + 1 // the row's neighbors above u
		var u []byte   // "u-", rendered at the row's first edge
		for w := lo / wordBits; w < r.adj.Width(); w++ {
			x := r.adj.Word(w)
			if w == lo/wordBits {
				x &^= 1<<uint(lo%wordBits) - 1
			}
			if x == 0 {
				continue
			}
			if u == nil {
				u = append(strconv.AppendInt(ubuf[:0], int64(r.id), 10), '-')
			}
			for ; x != 0; x &= x - 1 {
				dst = append(dst, u...)
				dst = strconv.AppendInt(dst, int64(w*wordBits+bits.TrailingZeros64(x)), 10)
				dst = append(dst, sep...)
			}
		}
	}
	if len(dst) > start {
		dst = dst[:len(dst)-len(sep)]
	}
	return dst
}

// MaxNodeID bounds the node IDs accepted from external input — edge lists,
// structures, node sets and topology deltas. Node sets, and so adjacency
// rows, are bitsets indexed by ID, so an absurd ID would allocate memory
// proportional to the ID rather than to the graph.
const MaxNodeID = 1 << 20

// ParseEdgeList builds a graph from a string like "0-1, 1-2, 2-3; 7" where
// edges are "u-v" pairs and bare integers add isolated nodes. Separators may
// be commas, semicolons, whitespace or newlines. IDs above MaxNodeID are
// rejected. Every field is read first; then the node set, the row table
// and every row's words are allocated once, at their final sizes.
func ParseEdgeList(s string) (*Graph, error) {
	// An edge is recorded as its two endpoints, a bare node as (id, -1);
	// a request-sized list stays on the stack.
	var buf [64][2]int
	ends := buf[:0]
	maxID := -1
	for i := 0; i < len(s); {
		if isEdgeListSep(s[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && !isEdgeListSep(s[j]) {
			j++
		}
		f := s[i:j]
		i = j
		if dash := strings.IndexByte(f, '-'); dash >= 0 {
			u, err := parseID(f[:dash], "edge")
			if err != nil {
				return nil, err
			}
			v, err := parseID(f[dash+1:], "edge")
			if err != nil {
				return nil, err
			}
			if u == v {
				return nil, fmt.Errorf("graph: self-loop %q", f)
			}
			ends = append(ends, [2]int{u, v})
			maxID = max(maxID, u, v)
			continue
		}
		id, err := parseID(f, "node")
		if err != nil {
			return nil, err
		}
		ends = append(ends, [2]int{id, -1})
		maxID = max(maxID, id)
	}
	return fromEnds(ends, maxID), nil
}

// isEdgeListSep reports whether b separates edge-list fields. Every
// separator is ASCII, so scanning bytes splits UTF-8 text as scanning
// runes would.
func isEdgeListSep(b byte) bool {
	return b == ',' || b == ';' || b == ' ' || b == '\n' || b == '\t' || b == '\r'
}

// parseID parses one node ID of an edge-list field.
func parseID(s, context string) (int, error) {
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("graph: bad %s %q: %w", context, s, err)
	}
	if id < 0 {
		return 0, fmt.Errorf("graph: negative node %d in %s", id, context)
	}
	if id > MaxNodeID {
		return 0, fmt.Errorf("graph: node %d in %s exceeds the %d ID limit", id, context, MaxNodeID)
	}
	return id, nil
}

// FromEdges returns the graph with the given edges and their endpoints as
// its nodes. Like ParseEdgeList it allocates the node set, the row table
// and every row's words once, at their final sizes, so assembling a large
// graph costs O(|V| + |E|) words rather than a row copy per edge. It
// panics on a self-loop or a negative ID, as AddEdge does.
func FromEdges(edges [][2]int) *Graph {
	maxID := -1
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 {
			panic("graph: negative node ID")
		}
		if e[0] == e[1] {
			panic("graph: self-loop")
		}
		maxID = max(maxID, e[0], e[1])
	}
	return fromEnds(edges, maxID)
}

// fromEnds builds the graph of endpoint pairs, an edge as (u, v) and a
// bare node as (id, -1), whose largest ID is maxID: the node set, then
// the row table in ID order, then each row reserved at its final width in
// one word slab and filled in place.
func fromEnds(ends [][2]int, maxID int) *Graph {
	g := &Graph{}
	if maxID < 0 {
		return g
	}
	w := maxID/wordBits + 1
	nodeSlab := nodeset.NewSlab(w)
	g.nodes = nodeSlab.Reserve(w)
	for _, e := range ends {
		for _, v := range e {
			if v >= 0 {
				g.nodes.MutateAdd(v)
			}
		}
	}
	g.rows = make([]row, g.nodes.Len())
	i := 0
	for w := 0; w < g.nodes.Width(); w++ {
		for x := g.nodes.Word(w); x != 0; x &= x - 1 {
			g.rows[i].id = w*wordBits + bits.TrailingZeros64(x)
			i++
		}
	}
	// top[r] is one more than the largest neighbor of row r's node.
	top := make([]int, len(g.rows))
	for _, e := range ends {
		if u, v := e[0], e[1]; v >= 0 {
			ru, rv := g.rank(u), g.rank(v)
			top[ru] = max(top[ru], v+1)
			top[rv] = max(top[rv], u+1)
		}
	}
	words := 0
	for _, t := range top {
		words += (t + wordBits - 1) / wordBits
	}
	sl := nodeset.NewSlab(words)
	for r, t := range top {
		g.rows[r].adj = sl.Reserve((t + wordBits - 1) / wordBits)
	}
	for _, e := range ends {
		if u, v := e[0], e[1]; v >= 0 {
			g.rows[g.rank(u)].adj.MutateAdd(v)
			g.rows[g.rank(v)].adj.MutateAdd(u)
		}
	}
	return g
}

// SortedIDs returns the graph's node IDs in increasing order.
func (g *Graph) SortedIDs() []int {
	ids := make([]int, len(g.rows))
	for i, r := range g.rows {
		ids[i] = r.id
	}
	return ids
}

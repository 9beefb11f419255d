// Package graph implements the undirected-graph substrate for the RMT
// library: adjacency over dense node IDs, induced subgraphs, graph unions
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
	"sort"
	"strconv"
	"strings"

	"rmt/internal/nodeset"
)

// Graph is an undirected graph over integer node IDs.
type Graph struct {
	nodes nodeset.Set
	adj   []nodeset.Set // indexed by node ID; entries for non-nodes are empty
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// NewWithNodes returns a graph with nodes {0..n-1} and no edges.
func NewWithNodes(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	return g
}

func (g *Graph) ensure(id int) {
	if id < 0 {
		panic("graph: negative node ID")
	}
	for len(g.adj) <= id {
		g.adj = append(g.adj, nodeset.Empty())
	}
}

// AddNode adds a node with the given ID. Adding an existing node is a no-op.
func (g *Graph) AddNode(id int) {
	if g.nodes.Contains(id) {
		return
	}
	g.ensure(id)
	g.nodes = g.nodes.Add(id)
}

// NewStar returns the star with center v and the given leaves: nodes
// {v} ∪ leaves and an edge from v to each leaf. The graph shares leaves as
// v's row and one {v} row among all leaves (Sets are immutable, as in
// Clone), so the star costs a constant number of allocations however many
// leaves it has.
func NewStar(v int, leaves nodeset.Set) *Graph {
	if leaves.Contains(v) {
		panic("graph: self-loop")
	}
	nodes := leaves.Add(v)
	adj := make([]nodeset.Set, nodes.Max()+1)
	adj[v] = leaves
	center := nodeset.Of(v)
	leaves.ForEach(func(u int) bool {
		adj[u] = center
		return true
	})
	return &Graph{nodes: nodes, adj: adj}
}

// AddEdge adds the undirected edge {u, v}, adding the endpoints as needed.
// Self-loops are rejected because channels connect distinct parties.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u] = g.adj[u].Add(v)
	g.adj[v] = g.adj[v].Add(u)
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
	g.adj[u] = g.adj[u].Remove(v)
	g.adj[v] = g.adj[v].Remove(u)
}

// RemoveNode deletes the node and every edge incident to it, in place.
// Removing an absent node is a no-op. See RemoveEdge for sharing caveats;
// RemoveNodes is the non-mutating form.
func (g *Graph) RemoveNode(id int) {
	if !g.HasNode(id) {
		return
	}
	g.adj[id].ForEach(func(v int) bool {
		g.adj[v] = g.adj[v].Remove(id)
		return true
	})
	g.adj[id] = nodeset.Empty()
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
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	return g.adj[u].Contains(v)
}

// Nodes returns the node set of g.
func (g *Graph) Nodes() nodeset.Set { return g.nodes }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.Len() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	g.nodes.ForEach(func(id int) bool {
		total += g.adj[id].Len()
		return true
	})
	return total / 2
}

// MaxID returns the largest node ID, or -1 for the empty graph.
func (g *Graph) MaxID() int { return g.nodes.Max() }

// Neighbors returns N(v), the neighborhood of v (not including v).
func (g *Graph) Neighbors(v int) nodeset.Set {
	if v < 0 || v >= len(g.adj) {
		return nodeset.Empty()
	}
	return g.adj[v]
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
	g.nodes.ForEach(func(u int) bool {
		g.adj[u].ForEach(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
		return true
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	cp := &Graph{nodes: g.nodes, adj: make([]nodeset.Set, len(g.adj))}
	copy(cp.adj, g.adj) // Sets are immutable values; shallow copy is safe
	return cp
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if !g.nodes.Equal(h.nodes) {
		return false
	}
	eq := true
	g.nodes.ForEach(func(id int) bool {
		if !g.adj[id].Equal(h.Neighbors(id)) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// InducedSubgraph returns the subgraph induced by keep ∩ V(g): the nodes in
// keep that exist in g, and every edge of g with both endpoints kept. A row
// of g that lies inside the kept set is shared rather than copied.
func (g *Graph) InducedSubgraph(keep nodeset.Set) *Graph {
	kept := g.nodes.Intersect(keep)
	sub := &Graph{nodes: kept}
	if m := kept.Max(); m >= 0 {
		sub.adj = make([]nodeset.Set, m+1)
		kept.ForEach(func(id int) bool {
			if row := g.adj[id]; row.SubsetOf(kept) {
				sub.adj[id] = row
			} else {
				sub.adj[id] = row.Intersect(kept)
			}
			return true
		})
	}
	return sub
}

// RemoveNodes returns the subgraph induced by V(g) \ drop.
func (g *Graph) RemoveNodes(drop nodeset.Set) *Graph {
	return g.InducedSubgraph(g.nodes.Minus(drop))
}

// Union returns the graph (V(g) ∪ V(h), E(g) ∪ E(h)). This is the topology
// half of the joint-view operation γ(S) from the paper.
func (g *Graph) Union(h *Graph) *Graph {
	u := g.Clone()
	h.nodes.ForEach(func(id int) bool {
		u.AddNode(id)
		return true
	})
	h.nodes.ForEach(func(id int) bool {
		u.adj[id] = u.adj[id].Union(h.adj[id])
		return true
	})
	return u
}

// UnionInduced returns the union of graphs induced on keep: the nodes of
// keep that lie in some graph, and every edge of some graph with both
// endpoints kept. It is the fold of Union over graphs followed by
// InducedSubgraph(keep), built in one pass over the graphs' rows: each kept
// row is allocated once and masked in place, and the union itself is never
// materialized.
func UnionInduced(keep nodeset.Set, graphs []*Graph) *Graph {
	var all nodeset.Set
	for _, h := range graphs {
		all.MutateUnion(h.nodes)
	}
	kept := all.Intersect(keep)
	sub := &Graph{nodes: kept}
	m := kept.Max()
	if m < 0 {
		return sub
	}
	sub.adj = make([]nodeset.Set, m+1)
	for _, h := range graphs {
		h.nodes.ForEach(func(u int) bool {
			if kept.Contains(u) {
				sub.adj[u].MutateUnion(h.adj[u])
			}
			return true
		})
	}
	// Every row lies inside all, so masking it to kept drops all \ keep.
	drop := all.Minus(keep)
	kept.ForEach(func(u int) bool {
		sub.adj[u].MutateMinus(drop)
		return true
	})
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
		g.adj[u].ForEach(func(w int) bool {
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
	dist := make([]int, len(g.adj))
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
		g.adj[u].ForEach(func(w int) bool {
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
	if !g.HasNode(v) || radius < 0 {
		return nodeset.Empty()
	}
	ball := nodeset.Of(v)
	frontier := nodeset.Of(v)
	for d := 0; d < radius; d++ {
		var next nodeset.Set
		frontier.ForEach(func(u int) bool {
			next.MutateUnion(g.adj[u])
			return true
		})
		next.MutateMinus(ball)
		if next.IsEmpty() {
			break
		}
		ball.MutateUnion(next)
		frontier = next
	}
	return ball
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
// separated by sep, to dst and returns the extended slice.
func (g *Graph) AppendEdges(dst []byte, sep string) []byte {
	first := true
	g.nodes.ForEach(func(u int) bool {
		g.adj[u].ForEach(func(v int) bool {
			if v > u {
				if !first {
					dst = append(dst, sep...)
				}
				first = false
				dst = strconv.AppendInt(dst, int64(u), 10)
				dst = append(dst, '-')
				dst = strconv.AppendInt(dst, int64(v), 10)
			}
			return true
		})
		return true
	})
	return dst
}

// ParseEdgeList builds a graph from a string like "0-1, 1-2, 2-3; 7" where
// edges are "u-v" pairs and bare integers add isolated nodes. Separators may
// be commas, semicolons, whitespace or newlines.
func ParseEdgeList(s string) (*Graph, error) {
	g := New()
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ';' || r == ' ' || r == '\n' || r == '\t' || r == '\r'
	})
	// Adjacency is dense (indexed by ID), so external input must not name
	// absurd IDs: that would allocate memory proportional to the largest
	// ID rather than to the graph.
	const maxParsedID = 1 << 20
	parseID := func(s, context string) (int, error) {
		id, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("graph: bad %s %q: %w", context, s, err)
		}
		if id < 0 {
			return 0, fmt.Errorf("graph: negative node %d in %s", id, context)
		}
		if id > maxParsedID {
			return 0, fmt.Errorf("graph: node %d in %s exceeds the %d ID limit", id, context, maxParsedID)
		}
		return id, nil
	}
	for _, f := range fields {
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
			g.AddEdge(u, v)
			continue
		}
		id, err := parseID(f, "node")
		if err != nil {
			return nil, err
		}
		g.AddNode(id)
	}
	return g, nil
}

// SortedIDs returns the graph's node IDs in increasing order.
func (g *Graph) SortedIDs() []int {
	ids := g.nodes.Members()
	sort.Ints(ids)
	return ids
}

// Package gen generates the graph topologies, adversary structures and
// problem instances used by the examples, tests and the experiment harness:
// classic families (lines, rings, grids, layered networks, disjoint relay
// paths), the paper's Figure-1 basic instances, the chimera
// knowledge-separation family, and seeded random instances.
package gen

import (
	"fmt"
	"math/rand"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// Line returns the path graph 0 − 1 − ... − (n−1).
func Line(n int) *graph.Graph {
	if n == 1 {
		return graph.NewWithNodes(1)
	}
	edges := make([][2]int, 0, max(n-1, 0))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.FromEdges(edges)
}

// Ring returns the cycle graph on n ≥ 3 nodes.
func Ring(n int) *graph.Graph {
	if n < 3 {
		panic("gen: ring needs n ≥ 3")
	}
	g := Line(n)
	g.AddEdge(n-1, 0)
	return g
}

// Grid returns the rows×cols grid graph, nodes numbered row-major.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New()
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(id(r, c))
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	if n == 1 {
		return graph.NewWithNodes(1)
	}
	edges := make([][2]int, 0, max(n*(n-1)/2, 0))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.FromEdges(edges)
}

// DisjointPaths returns a graph with `paths` internally disjoint relay
// chains of `hops` intermediate nodes each, between dealer 0 and receiver
// (paths*hops + 1). With hops = 1 this is the classic parallel-relay star.
func DisjointPaths(paths, hops int) (g *graph.Graph, dealer, receiver int) {
	if paths < 1 || hops < 1 {
		panic("gen: DisjointPaths needs paths ≥ 1 and hops ≥ 1")
	}
	lens := make([]int, paths)
	for p := range lens {
		lens[p] = hops
	}
	return DisjointPathsVar(lens)
}

// DisjointPathsVar generalizes DisjointPaths to chains of varying lengths:
// one internally disjoint relay chain per entry of lens, with lens[p]
// intermediate nodes on chain p, between dealer 0 and receiver
// (sum(lens) + 1). Lopsided length mixes (e.g. two 1-hop chains plus one
// very long one) scale the node count without changing which chains carry
// the decision, which is what the large-instance benchmarks need.
func DisjointPathsVar(lens []int) (g *graph.Graph, dealer, receiver int) {
	if len(lens) == 0 {
		panic("gen: DisjointPathsVar needs at least one chain")
	}
	total := 0
	for _, h := range lens {
		if h < 1 {
			panic("gen: DisjointPathsVar needs every chain length ≥ 1")
		}
		total += h
	}
	dealer = 0
	receiver = total + 1
	edges := make([][2]int, 0, total+len(lens))
	id := 1
	for _, hops := range lens {
		prev := dealer
		for h := 0; h < hops; h++ {
			edges = append(edges, [2]int{prev, id})
			prev = id
			id++
		}
		edges = append(edges, [2]int{prev, receiver})
	}
	return graph.FromEdges(edges), dealer, receiver
}

// Layered returns a layered network: dealer 0, `layers` layers of `width`
// relays with complete bipartite connections between consecutive layers,
// and the receiver behind the last layer.
func Layered(layers, width int) (g *graph.Graph, dealer, receiver int) {
	if layers < 1 || width < 1 {
		panic("gen: Layered needs layers ≥ 1 and width ≥ 1")
	}
	g = graph.New()
	dealer = 0
	receiver = layers*width + 1
	layerNode := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		g.AddEdge(dealer, layerNode(0, i))
		g.AddEdge(layerNode(layers-1, i), receiver)
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				g.AddEdge(layerNode(l, i), layerNode(l+1, j))
			}
		}
	}
	return g, dealer, receiver
}

// Chimera returns the knowledge-separation fixture of DESIGN.md: a graph
// and structure for which RMT is unsolvable in the ad hoc model (the joint
// structure of the receiver side admits the "chimera" set {2,3}) but
// solvable with radius-2 views. Dealer 0, receiver 6.
func Chimera() (g *graph.Graph, z adversary.Structure, dealer, receiver int) {
	g = graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 4)
	g.AddEdge(1, 5)
	g.AddEdge(3, 5)
	g.AddEdge(4, 6)
	g.AddEdge(5, 6)
	return g, adversary.FromSlices([]int{1}, []int{2}, []int{3}), 0, 6
}

// ChimeraScaled generalizes Chimera to k branches: the dealer feeds cut
// nodes 1..k+1; relay i (i = 1..k) hangs off cut nodes {1, i+1}; the
// receiver sits behind all relays. The structure corrupts any single cut
// node. Ad hoc solvability fails for k ≥ 2 (chimera sets {2..k+1} survive
// the ⊕), radius-2 succeeds.
func ChimeraScaled(k int) (g *graph.Graph, z adversary.Structure, dealer, receiver int) {
	if k < 2 {
		panic("gen: ChimeraScaled needs k ≥ 2")
	}
	g = graph.New()
	dealer = 0
	cut := func(i int) int { return 1 + i }       // i = 0..k
	relay := func(i int) int { return 2 + k + i } // i = 0..k-1
	receiver = 2 + 2*k
	sets := make([][]int, 0, k+1)
	for i := 0; i <= k; i++ {
		g.AddEdge(dealer, cut(i))
		sets = append(sets, []int{cut(i)})
	}
	for i := 0; i < k; i++ {
		g.AddEdge(cut(0), relay(i))
		g.AddEdge(cut(i+1), relay(i))
		g.AddEdge(relay(i), receiver)
	}
	return g, adversary.FromSlices(sets...), dealer, receiver
}

// RandomGNP returns a seeded Erdős–Rényi graph on n nodes with edge
// probability p.
func RandomGNP(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.NewWithNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Singletons returns the structure whose maximal sets are the singletons of
// the given nodes.
func Singletons(nodes nodeset.Set) adversary.Structure {
	return adversary.FromSets(nodeset.Singletons(nodes)...)
}

// Knowledge names a level of topology knowledge for instance construction.
type Knowledge int

// Knowledge levels, from the paper's two extremes through the radius
// interpolation.
const (
	AdHoc Knowledge = iota + 1
	Radius1
	Radius2
	Radius3
	FullKnowledge
)

func (k Knowledge) String() string {
	switch k {
	case AdHoc:
		return "adhoc"
	case Radius1:
		return "radius1"
	case Radius2:
		return "radius2"
	case Radius3:
		return "radius3"
	case FullKnowledge:
		return "full"
	default:
		return fmt.Sprintf("Knowledge(%d)", int(k))
	}
}

// View materializes the knowledge level as a view function on g.
func (k Knowledge) View(g *graph.Graph) view.Function {
	switch k {
	case AdHoc:
		return view.AdHoc(g)
	case Radius1:
		return view.Radius(g, 1)
	case Radius2:
		return view.Radius(g, 2)
	case Radius3:
		return view.Radius(g, 3)
	case FullKnowledge:
		return view.Full(g)
	default:
		panic("gen: unknown knowledge level")
	}
}

// Levels lists all knowledge levels in increasing order of information.
func Levels() []Knowledge {
	return []Knowledge{AdHoc, Radius1, Radius2, Radius3, FullKnowledge}
}

// Build assembles an instance from parts, with the given knowledge level.
func Build(g *graph.Graph, z adversary.Structure, k Knowledge, dealer, receiver int) (*instance.Instance, error) {
	return instance.New(g, z, k.View(g), dealer, receiver)
}

// RandomInstance draws a seeded random instance: a G(n,p) graph with a
// random structure over the non-terminal nodes. Returns nil if the drawn
// tuple is invalid (e.g. structure touching terminals — cannot happen — or
// view domain issues); callers typically loop.
func RandomInstance(r *rand.Rand, n int, p float64, numSets int, density float64, k Knowledge) (*instance.Instance, error) {
	g := RandomGNP(r, n, p)
	d, rcv := 0, n-1
	z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), numSets, density)
	return Build(g, z, k, d, rcv)
}

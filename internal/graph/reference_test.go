package graph

import (
	"fmt"
	"math/rand"
	"strconv"
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
		sub.rows[sub.rank(id)].adj = g.Neighbors(id).Intersect(kept)
		return true
	})
	return sub
}

// refParseEdgeList is ParseEdgeList as it assembled the graph one field
// at a time: strings.FieldsFunc, then one AddEdge per edge (cloning both
// rows) and one AddNode per bare node (cloning the node set).
func refParseEdgeList(s string) (*Graph, error) {
	g := New()
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ';' || r == ' ' || r == '\n' || r == '\t' || r == '\r'
	})
	parseID := func(s, context string) (int, error) {
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

// sameGraph reports how a differs from the reference b: nodes, edges, or
// a row table that is not exactly one row per node in ID order.
func sameGraph(a, b *Graph) error {
	if !a.Equal(b) || a.MaxID() != b.MaxID() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%v vs reference %v", a, b)
	}
	return rowPerNode(a)
}

// rowPerNode reports a row table that is not exactly one row per member
// of a's node set, in increasing ID order.
func rowPerNode(a *Graph) error {
	if a.nodes.Len() != len(a.rows) {
		return fmt.Errorf("%d rows for %d nodes", len(a.rows), a.nodes.Len())
	}
	for i, r := range a.rows {
		if i > 0 && a.rows[i-1].id >= r.id || !a.nodes.Contains(r.id) {
			return fmt.Errorf("row %d holds node %d out of order", i, r.id)
		}
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

// TestBatchViewsMatchReference: over seeded random graphs with dense and
// spread IDs, Stars() equals NewStar and the AddEdge-built star at every
// node, and Balls(k) for k from -1 to 4 equals InducedSubgraph(Ball) and
// the AddNode-built induced ball, element by element in ID order; a ball
// that holds every node is g itself. Every table holds one row per node.
// On a random node subset s, StarsOf(s) is the elements of Stars() for
// the members of s.
func TestBatchViewsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(14)
		span := n
		if trial%2 == 1 {
			span = n + r.Intn(300)
		}
		g := spreadGraph(r, n, span, 0.1+0.6*r.Float64())
		ids := g.SortedIDs()
		stars := g.Stars()
		if len(stars) != len(ids) {
			t.Fatalf("trial %d: %d stars for %d nodes", trial, len(stars), len(ids))
		}
		for i, v := range ids {
			for _, want := range []*Graph{NewStar(v, g.Neighbors(v)), refStar(v, g.Neighbors(v))} {
				if err := sameGraph(stars[i], want); err != nil {
					t.Fatalf("trial %d: star of %d: %v", trial, v, err)
				}
			}
		}
		for radius := -1; radius <= 4; radius++ {
			balls := g.Balls(radius)
			for i, v := range ids {
				ball := g.Ball(v, radius)
				if radius < 0 {
					ball = nodeset.Empty()
				}
				if !ball.Equal(refBall(g, v, radius)) {
					t.Fatalf("trial %d: Ball(%d, %d) = %v, reference %v", trial, v, radius, ball, refBall(g, v, radius))
				}
				for _, want := range []*Graph{g.InducedSubgraph(ball), refInducedSubgraph(g, ball)} {
					if err := sameGraph(balls[i], want); err != nil {
						t.Fatalf("trial %d: ball(%d, %d): %v", trial, v, radius, err)
					}
				}
				if (balls[i] == g) != ball.Equal(g.Nodes()) {
					t.Fatalf("trial %d: ball(%d, %d) covering %t but shared %t", trial, v, radius, ball.Equal(g.Nodes()), balls[i] == g)
				}
			}
		}
		var sub nodeset.Set
		var subStars []*Graph
		for i, v := range ids {
			if r.Intn(3) == 0 {
				sub.MutateAdd(v)
				subStars = append(subStars, stars[i])
			}
		}
		gotStars := g.StarsOf(sub)
		if len(gotStars) != len(subStars) {
			t.Fatalf("trial %d: %d stars for %d nodes of %v", trial, len(gotStars), sub.Len(), sub)
		}
		for i := range subStars {
			if err := sameGraph(gotStars[i], subStars[i]); err != nil {
				t.Fatalf("trial %d: StarsOf(%v)[%d]: %v", trial, sub, i, err)
			}
		}
		if err := sameGraph(g.Clone(), g); err != nil {
			t.Fatalf("trial %d: Clone: %v", trial, err)
		}
	}
}

// TestParseEdgeListMatchesReference: on seeded random edge lists — dense
// and spread IDs, duplicate and reversed edges, bare nodes, every
// separator — and on malformed ones, ParseEdgeList returns a graph Equal
// to the field-at-a-time reference's, with a table of one row per node, or
// exactly its error text.
func TestParseEdgeListMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	seps := []string{" ", ",", ";", "\n", "\t", "\r", ", ", " ;\t"}
	junk := []string{"", "-", "--", "x", "+3", "-4", "1-1", "2--3", "007", "1048577", "1048576", "99999999999999999999", "é", "3-"}
	for trial := 0; trial < 3000; trial++ {
		span := 1 + r.Intn(20)
		if trial%3 == 1 {
			span = 64 + r.Intn(400)
		}
		var b strings.Builder
		for f := r.Intn(30); f > 0; f-- {
			switch {
			case trial%4 == 3 && r.Intn(10) == 0:
				b.WriteString(junk[r.Intn(len(junk))])
			case r.Intn(6) == 0:
				b.WriteString(strconv.Itoa(r.Intn(span)))
			default:
				u, v := r.Intn(span), r.Intn(span)
				if u == v {
					v = (v + 1) % (span + 1)
				}
				fmt.Fprintf(&b, "%d-%d", u, v)
			}
			b.WriteString(seps[r.Intn(len(seps))])
		}
		s := b.String()
		got, err := ParseEdgeList(s)
		want, wantErr := refParseEdgeList(s)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("trial %d: %q: error %v, reference %v", trial, s, err, wantErr)
		}
		if err == nil {
			if err := sameGraph(got, want); err != nil {
				t.Fatalf("trial %d: %q: %v", trial, s, err)
			}
		}
	}
}

// TestTablesSizedToTheGraph: a graph whose IDs reach 2^20 keeps one row
// per node, and so do its stars, balls, induced subgraphs, unions and
// clones: building every view of a 24-node graph whose hub is ID 2^20
// allocates megabytes, not the gigabytes an ID-indexed table per view
// would.
func TestTablesSizedToTheGraph(t *testing.T) {
	var b strings.Builder
	for leaf := 3; leaf < 23; leaf++ {
		fmt.Fprintf(&b, "%d-%d ", leaf, MaxNodeID)
	}
	b.WriteString("0-2 2-1")
	g, err := ParseEdgeList(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range append(append(g.Stars(), g.Balls(1)...),
		g.InducedSubgraph(nodeset.Of(0, 2, 5, MaxNodeID)), UnionInduced(g.Nodes(), []*Graph{g, g}), g.Clone(), NewStar(MaxNodeID, nodeset.Of(1, 2))) {
		if err := rowPerNode(h); err != nil {
			t.Fatalf("%v: %v", h.Nodes(), err)
		}
	}
	bytes := bytesAllocated(func() {
		g, _ := ParseEdgeList(b.String())
		g.Stars()
		g.Balls(2)
	})
	if bytes > 16<<20 {
		t.Fatalf("parsing the hub and building its views allocated %d bytes", bytes)
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
	h.nodes.ForEach(func(id int) bool {
		g.AddNode(id)
		return true
	})
	h.nodes.ForEach(func(id int) bool {
		r := g.rank(id)
		g.rows[r].adj = g.rows[r].adj.Union(h.Neighbors(id))
		return true
	})
	return g
}

// refUnionInduced is UnionInduced as it was built on a table with one row
// per ID up to the kept set's largest: each kept row unioned in place
// across the graphs, then masked to keep.
func refUnionInduced(keep nodeset.Set, graphs []*Graph) *Graph {
	var all nodeset.Set
	for _, h := range graphs {
		all.MutateUnion(h.nodes)
	}
	kept := all.Intersect(keep)
	m := kept.Max()
	if m < 0 {
		return &Graph{nodes: kept}
	}
	adj := make([]nodeset.Set, m+1)
	for _, h := range graphs {
		h.nodes.ForEach(func(u int) bool {
			if kept.Contains(u) {
				adj[u].MutateUnion(h.Neighbors(u))
			}
			return true
		})
	}
	drop := all.Minus(keep)
	sub := New()
	kept.ForEach(func(u int) bool {
		adj[u].MutateMinus(drop)
		sub.AddNode(u)
		sub.rows[sub.rank(u)].adj = adj[u]
		return true
	})
	return sub
}

// TestUnionInducedMatchesFoldAndInduce: on 1,000 seeded families of
// overlapping views — spread IDs and shared nodes — and keep sets that cut
// them and include non-nodes, UnionInduced equals folding the views with
// refUnionInPlace in order and inducing on keep, and equals the one-pass
// build on an ID-indexed table (refUnionInduced): nodes, rows, a table of
// one row per kept node, and rendering. Union of two views equals their
// fold.
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
		for _, want := range []*Graph{ref, refUnionInduced(keep, views)} {
			if err := sameGraph(got, want); err != nil {
				t.Fatalf("trial %d: UnionInduced(%v): %v", trial, keep, err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d: %q, reference %q", trial, got, want)
			}
		}
		if len(views) >= 2 {
			fold := refUnionInPlace(refUnionInPlace(New(), views[0]), views[1])
			if err := sameGraph(views[0].Union(views[1]), fold); err != nil {
				t.Fatalf("trial %d: Union: %v", trial, err)
			}
		}
	}
}

package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rmt/internal/nodeset"
)

func TestSeparates(t *testing.T) {
	g := mustParse(t, "0-1 1-2 0-3 3-2")
	tests := []struct {
		cut  nodeset.Set
		want bool
	}{
		{nodeset.Of(1), false},      // path via 3 remains
		{nodeset.Of(1, 3), true},    //
		{nodeset.Of(0), false},      // cut contains an endpoint
		{nodeset.Of(2), false},      //
		{nodeset.Empty(), false},    //
		{nodeset.Of(1, 3, 9), true}} // extra non-node is harmless
	for _, tt := range tests {
		if got := g.Separates(tt.cut, 0, 2); got != tt.want {
			t.Errorf("Separates(%v, 0, 2) = %v, want %v", tt.cut, got, tt.want)
		}
	}
}

func TestBoundary(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3 1-4")
	if got := g.Boundary(nodeset.Of(1)).Members(); !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("Boundary({1}) = %v", got)
	}
	if got := g.Boundary(nodeset.Of(2, 3)).Members(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Boundary({2,3}) = %v", got)
	}
	if !g.Boundary(g.Nodes()).IsEmpty() {
		t.Fatal("Boundary(V) not empty")
	}
}

// connectedSets hands fn every connected set the walk visits from start
// with banned excluded and nothing skipped, as a Set.
func connectedSets(g *Graph, start int, banned nodeset.Set, fn func(b nodeset.Set) bool) {
	wk := g.NewWalk()
	wk.Sides(start, banned, -1, func(b, _ []uint64) bool { return fn(nodeset.FromWords(b)) })
}

// receiverSides hands fn every receiver side (B, N(B)) of a D–R cut that
// excludes the dealer — the walk's Sides(R, {D}, D) — as Sets.
func receiverSides(g *Graph, dealer, receiver int, fn func(b, cut nodeset.Set) bool) {
	wk := g.NewWalk()
	wk.Sides(receiver, nodeset.Of(dealer), dealer, func(b, cut []uint64) bool {
		return fn(nodeset.FromWords(b), nodeset.FromWords(cut))
	})
}

// minimalSeparators returns the minimal src–dst separators in canonical
// order, read off the walk: a separator C is minimal exactly when both
// src's and dst's components of G − C are full (every node of C has a
// neighbor in each), and the dst side of every such C is a receiver side
// B with C = N(B). B is always dst's component of G − N(B) and full, so
// the boundaries whose src component is full are exactly the minimal
// separators.
func minimalSeparators(g *Graph, src, dst int) []nodeset.Set {
	var out []nodeset.Set
	seen := map[string]bool{}
	receiverSides(g, src, dst, func(b, cut nodeset.Set) bool {
		if cut.IsEmpty() || seen[cut.Key()] {
			return true
		}
		a := g.RemoveNodes(cut).ComponentOf(src)
		full := true
		cut.ForEach(func(v int) bool {
			full = g.Neighbors(v).Intersects(a)
			return full
		})
		if full {
			seen[cut.Key()] = true
			out = append(out, cut)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func TestConnectedSetsPathGraph(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3")
	var got []string
	connectedSets(g, 1, nodeset.Empty(), func(b nodeset.Set) bool {
		got = append(got, b.String())
		return true
	})
	// Connected sets containing 1: {1},{0,1},{1,2},{0,1,2},{1,2,3},{0,1,2,3}.
	if len(got) != 6 {
		t.Fatalf("enumerated %d sets: %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate set %s", s)
		}
		seen[s] = true
	}
}

func TestConnectedSetsBanned(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3")
	count := 0
	connectedSets(g, 0, nodeset.Of(2), func(b nodeset.Set) bool {
		if b.Contains(2) || b.Contains(3) {
			t.Errorf("set %v crosses ban", b)
		}
		count++
		return true
	})
	if count != 2 { // {0}, {0,1}
		t.Fatalf("count = %d, want 2", count)
	}
	// Banned start yields nothing.
	n := 0
	connectedSets(g, 0, nodeset.Of(0), func(nodeset.Set) bool { n++; return true })
	if n != 0 {
		t.Fatal("banned start enumerated sets")
	}
}

func TestConnectedSetsCompleteness(t *testing.T) {
	// On a random graph, compare against brute force over all subsets.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(5)
		g := randomGraph(r, n, 0.4)
		start := r.Intn(n)
		want := map[string]bool{}
		nodeset.Universe(n).Subsets(func(sub nodeset.Set) bool {
			if sub.Contains(start) && g.InducedSubgraph(sub).IsConnected() {
				want[sub.Key()] = true
			}
			return true
		})
		got := map[string]bool{}
		connectedSets(g, start, nodeset.Empty(), func(b nodeset.Set) bool {
			if got[b.Key()] {
				t.Fatalf("duplicate %v", b)
			}
			got[b.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: enumerated %d connected sets, want %d (graph %v)", trial, len(got), len(want), g)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing a connected set", trial)
			}
		}
	}
}

func TestReceiverSideCandidates(t *testing.T) {
	// 0=D, 3=R, two disjoint relay paths through 1 and 2.
	g := mustParse(t, "0-1 1-3 0-2 2-3")
	type pair struct{ b, c string }
	var got []pair
	receiverSides(g, 0, 3, func(b, cut nodeset.Set) bool {
		if b.Contains(0) || cut.Contains(0) {
			t.Errorf("candidate touches dealer: B=%v C=%v", b, cut)
		}
		if !b.Contains(3) {
			t.Errorf("candidate misses receiver: B=%v", b)
		}
		if !g.Separates(cut, 0, 3) && !cut.IsEmpty() {
			t.Errorf("N(B)=%v does not separate for B=%v", cut, b)
		}
		got = append(got, pair{b.String(), cut.String()})
		return true
	})
	// Valid B: {3} (cut {1,2}), {1,3} (cut {0,2}→contains dealer? N({1,3})={0,2}
	// contains 0, skipped), {2,3} skipped, {1,2,3} skipped (N={0}).
	if len(got) != 1 || got[0].b != "{3}" || got[0].c != "{1, 2}" {
		t.Fatalf("candidates = %v", got)
	}
}

func TestReceiverSideCandidatesDealerEqualsReceiver(t *testing.T) {
	g := mustParse(t, "0-1")
	n := 0
	receiverSides(g, 0, 0, func(b, c nodeset.Set) bool { n++; return true })
	if n != 0 {
		t.Fatal("D == R should enumerate nothing")
	}
}

func TestMinimalSeparators(t *testing.T) {
	// Diamond: minimal 0-3 separators are {1,2}.
	g := mustParse(t, "0-1 0-2 1-3 2-3")
	seps := minimalSeparators(g, 0, 3)
	if len(seps) != 1 || !seps[0].Equal(nodeset.Of(1, 2)) {
		t.Fatalf("seps = %v", seps)
	}
	// Path 0-1-2-3: minimal separators {1} and {2}.
	g2 := mustParse(t, "0-1 1-2 2-3")
	seps2 := minimalSeparators(g2, 0, 3)
	if len(seps2) != 2 || !seps2[0].Equal(nodeset.Of(1)) || !seps2[1].Equal(nodeset.Of(2)) {
		t.Fatalf("path seps = %v", seps2)
	}
	// Adjacent nodes have no separator.
	if got := minimalSeparators(g2, 0, 1); got != nil {
		t.Fatalf("adjacent seps = %v", got)
	}
}

func TestMinimalSeparatorsAreMinimalAndSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(4)
		g := randomGraph(r, n, 0.35)
		src, dst := 0, n-1
		if g.HasEdge(src, dst) {
			continue
		}
		seps := minimalSeparators(g, src, dst)
		got := map[string]bool{}
		for _, c := range seps {
			got[c.Key()] = true
			if !g.Separates(c, src, dst) {
				t.Fatalf("trial %d: %v does not separate in %v", trial, c, g)
			}
			c.ForEach(func(v int) bool {
				if g.Separates(c.Remove(v), src, dst) {
					t.Fatalf("trial %d: %v not minimal (drop %d) in %v", trial, c, v, g)
				}
				return true
			})
		}
		// Every non-empty minimal separator, found by brute force, is among
		// them.
		g.Nodes().Minus(nodeset.Of(src, dst)).Subsets(func(c nodeset.Set) bool {
			minimal := !c.IsEmpty() && g.Separates(c, src, dst)
			c.ForEach(func(v int) bool {
				minimal = minimal && !g.Separates(c.Remove(v), src, dst)
				return minimal
			})
			if minimal && !got[c.Key()] {
				t.Fatalf("trial %d: minimal separator %v missing from %v in %v", trial, c, seps, g)
			}
			return true
		})
	}
}

func TestVertexConnectivity(t *testing.T) {
	tests := []struct {
		name  string
		edges string
		s, d  int
		want  int
	}{
		{"diamond", "0-1 0-2 1-3 2-3", 0, 3, 2},
		{"path", "0-1 1-2 2-3", 0, 3, 1},
		{"disconnected", "0-1 2-3", 0, 3, 0},
		{"adjacent", "0-1", 0, 1, -1},
		{"three disjoint", "0-1 1-4 0-2 2-4 0-3 3-4", 0, 4, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := mustParse(t, tt.edges)
			if got := g.VertexConnectivity(tt.s, tt.d); got != tt.want {
				t.Errorf("VertexConnectivity = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestQuickMengersTheorem(t *testing.T) {
	// Min separator size == vertex connectivity (Menger). Every minimal
	// separator is the N(B) of its receiver component B, and every N(B)
	// separates, so the oracle is the smallest |N(B)| over the walk's
	// receiver sides: 0 when the terminals are disconnected, and no side
	// at all (-1, like VertexConnectivity) when they are adjacent.
	f := func(a genGraph) bool {
		g := a.G
		src, dst := 0, g.NumNodes()-1
		min := -1
		receiverSides(g, src, dst, func(b, cut nodeset.Set) bool {
			if min < 0 || cut.Len() < min {
				min = cut.Len()
			}
			return true
		})
		return min == g.VertexConnectivity(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundarySeparates(t *testing.T) {
	// For any connected B containing dst with src ∉ B ∪ N(B) and N(B) ≠ ∅,
	// N(B) separates src from dst.
	r := rand.New(rand.NewSource(5))
	f := func(a genGraph) bool {
		g := a.G
		n := g.NumNodes()
		src, dst := 0, n-1
		if src == dst {
			return true
		}
		ok := true
		receiverSides(g, src, dst, func(b, cut nodeset.Set) bool {
			if cut.IsEmpty() {
				// dst's component excludes src entirely: disconnected.
				if g.Connected(src, dst) && b.Equal(g.ComponentOf(dst)) {
					ok = false
				}
				return ok
			}
			if !g.Separates(cut, src, dst) {
				ok = false
			}
			return ok
		})
		_ = r
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package graph

import (
	"math/rand"
	"runtime"
	"testing"

	"rmt/internal/nodeset"
)

// setConnectedSets is the Set-valued fix-and-extend enumeration the word
// walk replaced, kept as the reference the walk's visiting order is pinned
// against: every cut witness depends on which candidate comes first.
func setConnectedSets(g *Graph, start int, banned nodeset.Set, fn func(b, bnd nodeset.Set) bool) {
	if !g.HasNode(start) || banned.Contains(start) {
		return
	}
	var rec func(b, bnd, excluded nodeset.Set) bool
	rec = func(b, bnd, excluded nodeset.Set) bool {
		if !fn(b, bnd) {
			return false
		}
		cont := true
		bnd.Minus(excluded).ForEach(func(v int) bool {
			nb := b.Add(v)
			nbnd := bnd.Union(g.Neighbors(v))
			nbnd.MutateMinus(nb)
			cont = rec(nb, nbnd, excluded)
			excluded = excluded.Add(v)
			return cont
		})
		return cont
	}
	rec(nodeset.Of(start), g.Neighbors(start).Remove(start), banned.Add(start))
}

// sparseGraph relabels a random graph onto IDs spread over [0, span), so
// rows span several words and the ID space has holes.
func sparseGraph(r *rand.Rand, n, span int, p float64) (*Graph, []int) {
	ids := r.Perm(span)[:n]
	g := New()
	for _, id := range ids {
		g.AddNode(id)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(ids[u], ids[v])
			}
		}
	}
	return g, ids
}

type candidate struct{ b, bnd nodeset.Set }

func TestWalkMatchesSetEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := 3 + r.Intn(10)
		p := 0.15 + r.Float64()*0.5
		var g *Graph
		var ids []int
		if trial%2 == 0 {
			g, ids = randomGraph(r, n, p), r.Perm(n)
		} else {
			g, ids = sparseGraph(r, n, 64+r.Intn(200), p)
		}
		start, other := ids[0], ids[1]
		banned := nodeset.Of(other, 1000) // 1000 is beyond every row: dropped
		stopAfter := 1 + r.Intn(40)

		var want, got []candidate
		setConnectedSets(g, start, banned, func(b, bnd nodeset.Set) bool {
			want = append(want, candidate{b, bnd})
			return len(want) < stopAfter
		})
		wk := g.NewWalk()
		wk.Sides(start, banned, -1, func(b, bnd []uint64) bool {
			got = append(got, candidate{nodeset.FromWords(b), nodeset.FromWords(bnd)})
			return len(got) < stopAfter
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: walk emitted %d sets, reference %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k].b.Equal(want[k].b) || !got[k].bnd.Equal(want[k].bnd) {
				t.Fatalf("trial %d: candidate %d is (%v, %v), reference (%v, %v)",
					trial, k, got[k].b, got[k].bnd, want[k].b, want[k].bnd)
			}
		}

		// The receiver sides Sides(R, {D}, D) are the reference enumeration
		// from R with the dealer banned, minus sets whose boundary touches
		// the dealer.
		want = want[:0]
		setConnectedSets(g, start, nodeset.Of(other), func(b, bnd nodeset.Set) bool {
			if !bnd.Contains(other) {
				want = append(want, candidate{b, bnd})
			}
			return true
		})
		got = got[:0]
		wk.Sides(start, nodeset.Of(other), other, func(b, cut []uint64) bool {
			got = append(got, candidate{nodeset.FromWords(b), nodeset.FromWords(cut)})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d receiver sides, reference %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k].b.Equal(want[k].b) || !got[k].bnd.Equal(want[k].bnd) {
				t.Fatalf("trial %d: receiver side %d is (%v, %v), reference (%v, %v)",
					trial, k, got[k].b, got[k].bnd, want[k].b, want[k].bnd)
			}
		}
	}
}

// TestWalkSidesExhaustive checks the receiver sides Sides(start, ∅, skip)
// on every graph on 2–6 labelled nodes (2–5 under -short) and every pair
// start ≠ skip against the reference enumeration from start with skip
// banned, minus the sets whose boundary holds skip: the same sides, in the
// same order.
func TestWalkSidesExhaustive(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 5
	}
	var want, got []candidate
	for n := 2; n <= maxN; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := NewWithNodes(n)
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(e[0], e[1])
				}
			}
			wk := g.NewWalk()
			for start := 0; start < n; start++ {
				for skip := 0; skip < n; skip++ {
					if skip == start {
						continue
					}
					want = want[:0]
					setConnectedSets(g, start, nodeset.Of(skip), func(b, bnd nodeset.Set) bool {
						if !bnd.Contains(skip) {
							want = append(want, candidate{b, bnd})
						}
						return true
					})
					got = got[:0]
					wk.Sides(start, nodeset.Set{}, skip, func(b, bnd []uint64) bool {
						got = append(got, candidate{nodeset.FromWords(b), nodeset.FromWords(bnd)})
						return true
					})
					if len(got) != len(want) {
						t.Fatalf("n=%d edges %v start %d skip %d: %d sides, reference %d", n, g.Edges(), start, skip, len(got), len(want))
					}
					for k := range want {
						if !got[k].b.Equal(want[k].b) || !got[k].bnd.Equal(want[k].bnd) {
							t.Fatalf("n=%d edges %v start %d skip %d: side %d is (%v, %v), reference (%v, %v)",
								n, g.Edges(), start, skip, k, got[k].b, got[k].bnd, want[k].b, want[k].bnd)
						}
					}
				}
			}
		}
	}
}

// TestWalkDeadSidesAllocBudget pins that the walk never steps into a set
// whose boundary holds skip. On the line 1–2–…–41 with the dealer 0
// attached to node 2, the only receiver side from 1 is ({1}, {2}), and a
// walk allocates its rows and nothing else: no frame chunk for the deeper
// sets, all of which hold 2 and so keep 0 on their boundary.
func TestWalkDeadSidesAllocBudget(t *testing.T) {
	g := NewWithNodes(42)
	for v := 1; v < 41; v++ {
		g.AddEdge(v, v+1)
	}
	g.AddEdge(0, 2)
	var sides []candidate
	wk := g.NewWalk()
	wk.Sides(1, nodeset.Of(0), 0, func(b, bnd []uint64) bool {
		sides = append(sides, candidate{nodeset.FromWords(b), nodeset.FromWords(bnd)})
		return true
	})
	if len(sides) != 1 || !sides[0].b.Equal(nodeset.Of(1)) || !sides[0].bnd.Equal(nodeset.Of(2)) {
		t.Fatalf("receiver sides %v, want only ({1}, {2})", sides)
	}
	allocs := testing.AllocsPerRun(10, func() {
		wk := g.NewWalk()
		wk.Sides(1, nodeset.Of(0), 0, func(b, bnd []uint64) bool { return true })
	})
	// The walk's rows and the banned set.
	const budget = 2
	if allocs > budget {
		t.Fatalf("walk over one receiver side allocated %.1f times, want ≤ %d", allocs, budget)
	}
}

// TestWalkAllocBudget pins that a walk allocates its rows once and then
// one chunk per doubling of the depth it reaches, never per candidate.
func TestWalkAllocBudget(t *testing.T) {
	g := NewWithNodes(40)
	for v := 0; v+1 < 40; v++ {
		g.AddEdge(v, v+1)
	}
	n := 0
	banned := nodeset.Of(0)
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		wk := g.NewWalk()
		wk.Sides(39, banned, 0, func(b, cut []uint64) bool { n++; return true })
	})
	// Rows and rank table, then chunks for depths [16, 32) and [32, 64).
	const budget = 4
	if n < 38 {
		t.Fatalf("walk emitted %d receiver sides, want ≥ 38", n)
	}
	if allocs > budget {
		t.Fatalf("walk over %d candidates allocated %.1f times, want ≤ %d", n, allocs, budget)
	}
}

// TestSparseIDsCostLinearMemory pins that per-node tables have a row per
// node, not per ID: a three-node graph whose largest ID is 2^15 must cost a
// few rows of W = 513 words, not MaxID rows (about 134 MB per table).
func TestSparseIDsCostLinearMemory(t *testing.T) {
	const big = 1 << 15
	g := mustParse(t, "0-7 7-32768")
	rowBytes := uint64(g.RowWidth() * 8)
	const budgetRows = 64
	var cands int
	allocated := bytesAllocated(func() {
		wk := g.NewWalk()
		wk.Sides(big, nodeset.Of(0), 0, func(b, cut []uint64) bool {
			cands++
			return true
		})
		wk.Sides(big, nodeset.Empty(), -1, func(b, bnd []uint64) bool { return true })
	})
	if cands != 1 {
		t.Fatalf("got %d receiver sides, want 1 ({%d} behind cut {7})", cands, big)
	}
	if allocated > budgetRows*rowBytes {
		t.Fatalf("walks over sparse IDs allocated %d bytes, budget %d rows of %d bytes", allocated, budgetRows, rowBytes)
	}
}

// bytesAllocated returns the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

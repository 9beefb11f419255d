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
		g.ConnectedSets(start, banned, func(b nodeset.Set) bool {
			got = append(got, candidate{b: b})
			return len(got) < stopAfter
		})
		wk := g.NewWalk()
		i := 0
		wk.connectedSets(start, banned, func(b, bnd []uint64) bool {
			if i < len(got) {
				got[i].bnd = nodeset.FromWords(bnd)
			}
			i++
			return i < stopAfter
		})
		if len(got) != len(want) || i != len(want) {
			t.Fatalf("trial %d: walk emitted %d/%d sets, reference %d", trial, len(got), i, len(want))
		}
		for k := range want {
			if !got[k].b.Equal(want[k].b) || !got[k].bnd.Equal(want[k].bnd) {
				t.Fatalf("trial %d: candidate %d is (%v, %v), reference (%v, %v)",
					trial, k, got[k].b, got[k].bnd, want[k].b, want[k].bnd)
			}
		}

		// ReceiverSideCandidates is the reference enumeration from R with
		// the dealer banned, minus sets whose boundary touches the dealer.
		want = want[:0]
		setConnectedSets(g, start, nodeset.Of(other), func(b, bnd nodeset.Set) bool {
			if !bnd.Contains(other) {
				want = append(want, candidate{b, bnd})
			}
			return true
		})
		got = got[:0]
		g.ReceiverSideCandidates(other, start, func(b, cut nodeset.Set) bool {
			got = append(got, candidate{b, cut})
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

// TestAdaptersRetainArguments pins the adapters' contract that fn may keep
// the Sets it is handed: later candidates must not overwrite them.
func TestAdaptersRetainArguments(t *testing.T) {
	g := mustParse(t, "0-1 1-2 2-3 1-3 3-4")
	var kept []candidate
	g.ReceiverSideCandidates(0, 4, func(b, cut nodeset.Set) bool {
		kept = append(kept, candidate{b, cut})
		return true
	})
	var want []candidate
	setConnectedSets(g, 4, nodeset.Of(0), func(b, bnd nodeset.Set) bool {
		if !bnd.Contains(0) {
			want = append(want, candidate{b, bnd})
		}
		return true
	})
	if len(kept) != len(want) || len(kept) < 3 {
		t.Fatalf("got %d candidates, want %d (≥ 3)", len(kept), len(want))
	}
	for k := range want {
		if !kept[k].b.Equal(want[k].b) || !kept[k].bnd.Equal(want[k].bnd) {
			t.Fatalf("retained candidate %d changed to (%v, %v), want (%v, %v)",
				k, kept[k].b, kept[k].bnd, want[k].b, want[k].bnd)
		}
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
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		wk := g.NewWalk()
		wk.ReceiverSides(0, 39, func(b, cut []uint64) bool { n++; return true })
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
		g.ReceiverSideCandidates(0, big, func(b, cut nodeset.Set) bool {
			cands++
			return true
		})
		g.ConnectedSets(big, nodeset.Empty(), func(nodeset.Set) bool { return true })
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

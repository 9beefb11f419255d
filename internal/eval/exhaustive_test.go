package eval

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

func TestE13AllRowsClean(t *testing.T) {
	tab := E13Exhaustive(fast())
	for _, row := range tab.Rows {
		if row[4] != "0" {
			t.Errorf("%s/%s: PKA mismatches %s", row[0], row[1], row[4])
		}
	}
}

// TestExhaustiveFiveNodes extends the exhaustive sweep to every labeled
// 5-node graph (1024 edge subsets) with singleton corruption of the three
// relays, in the ad hoc model. Run with -short to skip.
func TestExhaustiveFiveNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=5 sweep")
	}
	const n = 5
	dealer, receiver := 0, n-1
	z := gen.Singletons(nodeset.Of(1, 2, 3))
	pairs := allEdgePairs(n)
	var total, solvable int
	for mask := 0; mask < 1<<len(pairs); mask++ {
		g := graph.NewWithNodes(n)
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				g.AddEdge(e[0], e[1])
			}
		}
		in, err := instance.AdHoc(g, z, dealer, receiver)
		if err != nil {
			continue
		}
		total++
		cutFree := core.Solvable(in)
		ok, err := protocol.Resilient(core.Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if cutFree != ok {
			t.Fatalf("mask %d: PKA cut=%v sim=%v on %v", mask, cutFree, ok, g)
		}
		if zOK, err := protocol.Resilient(zcpa.Proto{}, in); err != nil {
			t.Fatal(err)
		} else if zcpa.Solvable(in) != zOK {
			t.Fatalf("mask %d: Z-CPA mismatch on %v", mask, g)
		}
		if cutFree {
			solvable++
		}
	}
	if total != 1024 {
		t.Fatalf("checked %d graphs, want 1024", total)
	}
	t.Logf("n=5 exhaustive: %d/%d solvable, zero mismatches", solvable, total)
}

// TestExhaustiveStructuresOnFixedGraph sweeps EVERY monotone structure over
// the two relays of the diamond (there are only a handful) and checks
// tightness for each — the structure-space dual of the graph sweep.
func TestExhaustiveStructuresOnFixedGraph(t *testing.T) {
	g, err := graph.ParseEdgeList("0-1 0-2 1-3 2-3")
	if err != nil {
		t.Fatal(err)
	}
	relays := nodeset.Of(1, 2)
	// All antichains over {1,2}: {∅}, {{1}}, {{2}}, {{1},{2}}, {{1,2}}.
	structures := []adversary.Structure{
		adversary.Trivial(),
		adversary.FromSlices([]int{1}),
		adversary.FromSlices([]int{2}),
		adversary.FromSlices([]int{1}, []int{2}),
		adversary.FromSets(relays),
	}
	wantSolvable := []bool{true, true, true, false, false}
	for i, z := range structures {
		in, err := instance.AdHoc(g, z, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		cutFree := core.Solvable(in)
		if cutFree != wantSolvable[i] {
			t.Errorf("structure %v: solvable = %v, want %v", z, cutFree, wantSolvable[i])
		}
		ok, err := protocol.Resilient(core.Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if ok != cutFree {
			t.Errorf("structure %v: sim %v != cut %v", z, ok, cutFree)
		}
	}
}

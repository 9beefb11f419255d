package ppa

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/core"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

func fullInstance(t *testing.T, edges string, z adversary.Structure, d, r int) *instance.Instance {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	in, err := instance.New(g, z, view.Full(g), d, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestHonestDelivery(t *testing.T) {
	in := fullInstance(t, "0-1 1-2", adversary.Trivial(), 0, 2)
	res, err := protocol.Run(Proto{}, in, "m", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(2); !ok || got != "m" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestResilientTriplePath(t *testing.T) {
	// Singleton corruptions, three disjoint paths: PPA succeeds.
	in := fullInstance(t, "0-1 0-2 0-3 1-4 2-4 3-4",
		adversary.FromSlices([]int{1}, []int{2}, []int{3}), 0, 4)
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("PPA not resilient on triple path")
	}
	if _, _, found := PairCut(in); found {
		t.Fatal("pair cut found on triple path")
	}
}

func TestPairCutDiamond(t *testing.T) {
	// Weak diamond: {1} ∪ {2} cuts D from R — unsolvable even with full
	// knowledge.
	in := fullInstance(t, "0-1 0-2 1-3 2-3",
		adversary.FromSlices([]int{1}, []int{2}), 0, 3)
	z1, z2, found := PairCut(in)
	if !found {
		t.Fatal("no pair cut on weak diamond")
	}
	if !z1.Union(z2).Equal(nodeset.Of(1, 2)) {
		t.Fatalf("pair cut = %v ∪ %v", z1, z2)
	}
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("PPA resilient despite pair cut")
	}
}

func TestSafetyAgainstValueForgery(t *testing.T) {
	in := fullInstance(t, "0-1 0-2 0-3 1-4 2-4 3-4",
		adversary.FromSlices([]int{1}, []int{2}, []int{3}), 0, 4)
	for _, c := range []int{1, 2, 3} {
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{c: core.NewValueFlipper(in, c, "forged")}})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(4); !ok || got != "real" {
			t.Fatalf("corrupt=%d: decision = %q, %v", c, got, ok)
		}
	}
}

func TestDisconnectedTrivialPairCut(t *testing.T) {
	in := fullInstance(t, "0-1 2-3", adversary.Trivial(), 0, 3)
	if _, _, found := PairCut(in); !found {
		t.Fatal("disconnected instance has no pair cut?")
	}
}

// TestPairCutTightness: PPA succeeds iff no 𝒵-pair cut, on random
// full-knowledge instances.
func TestPairCutTightness(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(3)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(2), 0.4)
		in, err := instance.New(g, z, view.Full(g), 0, n-1)
		if err != nil {
			continue
		}
		_, _, cut := PairCut(in)
		ok, err := protocol.Resilient(Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if cut == ok {
			t.Fatalf("trial %d: pairCut=%v but resilient=%v\nG=%v Z=%v", trial, cut, ok, g, z)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestPKADominatesPPA: RMT-PKA (unique) must solve every instance PPA
// solves; on full-knowledge instances the two coincide.
func TestPKADominatesPPA(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(2)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 2, 0.35)
		in, err := instance.New(g, z, view.Full(g), 0, n-1)
		if err != nil {
			continue
		}
		ppaOK, err := protocol.Resilient(Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		pkaOK, err := protocol.Resilient(core.Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if ppaOK && !pkaOK {
			t.Fatalf("trial %d: PPA solves but PKA does not (uniqueness violated)\nG=%v Z=%v", trial, g, z)
		}
		if pkaOK != ppaOK {
			t.Fatalf("trial %d: full-knowledge PKA=%v vs PPA=%v should coincide\nG=%v Z=%v", trial, pkaOK, ppaOK, g, z)
		}
	}
}

func TestErroneousTrafficIgnored(t *testing.T) {
	in := fullInstance(t, "0-1 0-2 1-3 2-3", adversary.FromSlices([]int{1}), 0, 3)
	spam := &byzantine.Spammer{ID: 1, Neighbors: in.G.Neighbors(1), PerRound: 2}
	res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: map[int]network.Process{1: spam}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(3); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

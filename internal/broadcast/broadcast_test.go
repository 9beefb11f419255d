package broadcast

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

func mustInstance(t *testing.T, edges string, z adversary.Structure, dealer int) *Instance {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(g, z, dealer)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestValidation(t *testing.T) {
	g, _ := graph.ParseEdgeList("0-1")
	if _, err := New(g, adversary.Trivial(), 9); err == nil {
		t.Fatal("accepted non-node dealer")
	}
	if _, err := New(g, adversary.FromSlices([]int{0}), 0); err == nil {
		t.Fatal("accepted corruptible dealer")
	}
	g2, _ := graph.ParseEdgeList("0-1")
	if _, err := New(g2, adversary.FromSlices([]int{7}), 0); err == nil {
		t.Fatal("accepted structure over non-nodes")
	}
}

func TestHonestBroadcastLine(t *testing.T) {
	in := mustInstance(t, "0-1 1-2 2-3", adversary.Trivial(), 0)
	res, err := Run(in, "m", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if got, ok := res.DecisionOf(v); !ok || got != "m" {
			t.Fatalf("node %d decision = %q, %v", v, got, ok)
		}
	}
}

func TestBroadcastUnderCorruption(t *testing.T) {
	// K4 on {0..3} plus the structure corrupting any single non-dealer:
	// every honest player certifies via the other two.
	in := mustInstance(t, "0-1 0-2 0-3 1-2 1-3 2-3",
		adversary.FromSlices([]int{1}, []int{2}, []int{3}), 0)
	ok, err := Resilient(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("K4 broadcast not resilient")
	}
	if !Solvable(in) {
		t.Fatal("K4 broadcast has a cut?")
	}
}

func TestBroadcastImpossibleOnThinGraph(t *testing.T) {
	// A path: any single corruptible middle node cuts the far side.
	in := mustInstance(t, "0-1 1-2", adversary.FromSlices([]int{1}), 0)
	cut, found := FindZppCut(in)
	if !found {
		t.Fatal("no cut on the path")
	}
	if !cut.C1.Equal(nodeset.Of(1)) || !cut.B.Equal(nodeset.Of(2)) {
		t.Fatalf("cut = %v", cut)
	}
	ok, err := Resilient(in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("resilient despite cut")
	}
}

func TestBroadcastSafetyUnderLies(t *testing.T) {
	in := mustInstance(t, "0-1 0-2 0-3 1-2 1-3 2-3",
		adversary.FromSlices([]int{1}, []int{2}, []int{3}), 0)
	for _, c := range []int{1, 2, 3} {
		lie := &zcpa.WrongValue{Neighbors: in.G.Neighbors(c), Value: "forged"}
		res, err := Run(in, "real", map[int]network.Process{c: lie}, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.G.Nodes().Remove(0).Remove(c).ForEach(func(v int) bool {
			if got, ok := res.DecisionOf(v); ok && got != "real" {
				t.Fatalf("corrupt=%d: node %d decided %q", c, v, got)
			}
			return true
		})
	}
}

// TestTightness cross-validates the Definition-10 cut against operational
// resilience on random instances — the [13] theorems as assertions.
func TestTightness(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(4)
		g := gen.RandomGNP(r, n, 0.5)
		z := adversary.Random(r, g.Nodes().Remove(0), 1+r.Intn(3), 0.35)
		in, err := New(g, z, 0)
		if err != nil {
			continue
		}
		solvable := Solvable(in)
		resilient, err := Resilient(in)
		if err != nil {
			t.Fatal(err)
		}
		if solvable != resilient {
			cut, _ := FindZppCut(in)
			t.Fatalf("trial %d: cut-solvable=%v resilient=%v\nG=%v Z=%v cut=%v",
				trial, solvable, resilient, g, z, cut)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestBroadcastEqualsAllReceiversRMT: broadcast solvable ⟺ RMT solvable to
// every honest candidate receiver (the trivial adaptation the paper
// mentions), on random instances where all candidates are valid receivers.
func TestBroadcastEqualsAllReceiversRMT(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(3)
		g := gen.RandomGNP(r, n, 0.55)
		// Structure over non-terminal candidates only, so every node
		// outside the ground can serve as an RMT receiver.
		z := adversary.Random(r, g.Nodes().Remove(0), 2, 0.3)
		in, err := New(g, z, 0)
		if err != nil {
			continue
		}
		bcast := Solvable(in)
		allRMT := true
		ground := z.Ground()
		candidates := 0
		g.Nodes().Remove(0).Minus(ground).ForEach(func(rcv int) bool {
			rin, err := instance.AdHoc(g, z, 0, rcv)
			if err != nil {
				return true
			}
			candidates++
			if !zcpa.Solvable(rin) {
				allRMT = false
			}
			return true
		})
		if candidates == 0 {
			continue
		}
		// Broadcast ⟹ RMT everywhere. (The converse can fail: broadcast
		// also requires corruptible-but-honest nodes to decide.)
		if bcast && !allRMT {
			t.Fatalf("trial %d: broadcast solvable but some RMT receiver is not\nG=%v Z=%v", trial, g, z)
		}
	}
}

func TestGoroutineEngineBroadcast(t *testing.T) {
	in := mustInstance(t, "0-1 0-2 1-2 1-3 2-3", adversary.FromSlices([]int{1}), 0)
	a, err := Run(in, "x", protocol.Silence(nodeset.Of(1)), network.Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, "x", protocol.Silence(nodeset.Of(1)), network.Goroutine)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 3} {
		av, aok := a.DecisionOf(v)
		bv, bok := b.DecisionOf(v)
		if av != bv || aok != bok {
			t.Fatalf("node %d: engines disagree", v)
		}
	}
}

func TestKooCPASpecialCase(t *testing.T) {
	// Koo's t-locally bounded model: CPA is Z-CPA with the t-local
	// structure. On a 2-connected ring with t=0 everything is decided; a
	// 1-local structure on a 4-ring admits a cut.
	g := gen.Ring(5)
	zt := adversary.TLocal(g.Nodes().Remove(0), func(v int) nodeset.Set { return g.Neighbors(v) }, 1)
	in, err := New(g, zt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1-locally bounded on a ring: each node has 2 neighbors; certifying
	// requires 2 same-value reporters but nodes have only one "upstream"
	// neighbor — broadcast must be unsolvable.
	if Solvable(in) {
		t.Fatal("1-local ring broadcast should be unsolvable")
	}
	// t = 0 (no corruption anywhere): trivially solvable.
	in0, err := New(g, adversary.Trivial(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Solvable(in0) {
		t.Fatal("0-local ring broadcast should be solvable")
	}
}

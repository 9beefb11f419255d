package rmt

import (
	"testing"
)

func triple(t *testing.T) (*Graph, Structure) {
	t.Helper()
	g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	if err != nil {
		t.Fatal(err)
	}
	return g, StructureOf([]int{1}, []int{2}, []int{3})
}

func TestQuickstartFlow(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !SolvablePKA(in) || !SolvableZCPA(in) {
		t.Fatal("triple path should be solvable")
	}
	res, err := RunProtocol(ProtocolPKA, in, "attack at dawn", nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "attack at dawn" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestRunZCPAWithSilentCorruption(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(ProtocolZCPA, in, "x", SilentCorruption(NodeSet(2)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestRunPPAFullKnowledge(t *testing.T) {
	g, z := triple(t)
	in, err := NewInstance(g, z, FullView(g), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(ProtocolPPA, in, "x", nil, RunOptions{Engine: Lockstep})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
	if _, _, found := FindPairCut(in); found {
		t.Fatal("pair cut on triple path")
	}
}

func TestCutWitnesses(t *testing.T) {
	g, err := ParseEdgeList("0-1 0-2 1-3 2-3")
	if err != nil {
		t.Fatal(err)
	}
	z := StructureOf([]int{1}, []int{2})
	in, err := NewAdHocInstance(g, z, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if SolvablePKA(in) || SolvableZCPA(in) {
		t.Fatal("weak diamond should be unsolvable")
	}
	if _, found := FindRMTCut(in); !found {
		t.Fatal("no RMT-cut witness")
	}
	if _, found := FindZppCut(in); !found {
		t.Fatal("no Z-pp cut witness")
	}
}

func TestResilienceCheckers(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ResilientPKA(in); err != nil || !ok {
		t.Fatalf("ResilientPKA = %v, %v", ok, err)
	}
	if ok, err := ResilientZCPA(in); err != nil || !ok {
		t.Fatalf("ResilientZCPA = %v, %v", ok, err)
	}
}

func TestAttackZooSafety(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range AttackZoo(in, NodeSet(2), "forged") {
		res, err := RunProtocol(ProtocolPKA, in, "real", corrupt, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(4); ok && got != "real" {
			t.Errorf("strategy %s: decided %q", name, got)
		}
	}
}

func TestThresholdAndTLocal(t *testing.T) {
	g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	if err != nil {
		t.Fatal(err)
	}
	z := Threshold(NodeSet(1, 2, 3), 1)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !SolvableZCPA(in) {
		t.Fatal("threshold-1 triple path unsolvable")
	}
	tl := TLocal(g, 1)
	if tl.Contains(NodeSet(1, 2)) {
		t.Fatal("t-local allows two corruptions in N(0)")
	}
}

func TestJoinViewsPublic(t *testing.T) {
	z := StructureOf([]int{1, 2})
	a := z.RestrictTo(NodeSet(1))
	b := z.RestrictTo(NodeSet(2))
	j := JoinViews(a, b)
	if !j.Contains(NodeSet(1, 2)) {
		t.Fatal("join lost the chimera union")
	}
}

func TestFeasibleReceivers(t *testing.T) {
	g, z := triple(t)
	got := FeasibleReceivers(g, z, AdHocView(g), 0)
	// Only node 4 is outside the corruptible ground and solvable.
	if !got.Equal(NodeSet(4)) {
		t.Fatalf("FeasibleReceivers = %v", got)
	}
}

func TestMinimalKnowledgeRadius(t *testing.T) {
	g, err := ParseEdgeList("0-1 0-2 0-3 1-4 2-4 1-5 3-5 4-6 5-6")
	if err != nil {
		t.Fatal(err)
	}
	z := StructureOf([]int{1}, []int{2}, []int{3})
	k, ok := MinimalKnowledgeRadius(g, z, 0, 6)
	if !ok || k != 2 {
		t.Fatalf("MinimalKnowledgeRadius = %d, %v; want 2, true", k, ok)
	}
	// Unsolvable instance.
	g2, _ := ParseEdgeList("0-1 0-2 1-3 2-3")
	if _, ok := MinimalKnowledgeRadius(g2, StructureOf([]int{1}, []int{2}), 0, 3); ok {
		t.Fatal("weak diamond reported solvable")
	}
}

func TestPiDeciderPublic(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := NewPiDecider(in)
	res, err := RunProtocol(ProtocolZCPA, in, "x", nil, RunOptions{Decider: pi})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
	if pi.SimulatedRuns.Load() == 0 {
		t.Fatal("no Π runs simulated")
	}
}

func TestBasicPublic(t *testing.T) {
	b := NewBasic(NodeSet(1, 2, 3), StructureOf([]int{1}))
	if !b.Solvable() {
		t.Fatal("basic instance should be solvable")
	}
}

func TestGoroutineEnginePublic(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{Engine: Goroutine})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestNoCorruptionLine(t *testing.T) {
	g, err := ParseEdgeList("0-1 1-2 2-3")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewAdHocInstance(g, NoCorruption(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(ProtocolPKA, in, "hello", nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(3); !ok || got != "hello" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

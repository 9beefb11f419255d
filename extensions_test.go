package rmt

import "testing"

func TestBroadcastPublicAPI(t *testing.T) {
	g, err := ParseEdgeList("0-1 0-2 0-3 1-2 1-3 2-3")
	if err != nil {
		t.Fatal(err)
	}
	z := StructureOf([]int{1}, []int{2}, []int{3})
	in, err := NewBroadcast(g, z, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !SolvableBroadcast(in) {
		t.Fatal("K4 broadcast unsolvable")
	}
	ok, err := ResilientBroadcast(in)
	if err != nil || !ok {
		t.Fatalf("ResilientBroadcast = %v, %v", ok, err)
	}
	res, err := RunBroadcast(in, "m", SilentCorruption(NodeSet(2)), Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 3} {
		if got, decided := res.DecisionOf(v); !decided || got != "m" {
			t.Fatalf("node %d: %q, %v", v, got, decided)
		}
	}
}

func TestBroadcastCutWitness(t *testing.T) {
	g, err := ParseEdgeList("0-1 1-2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewBroadcast(g, StructureOf([]int{1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut, found := FindBroadcastCut(in)
	if !found || !cut.C1.Equal(NodeSet(1)) {
		t.Fatalf("cut = %v, found = %v", cut, found)
	}
}

func TestDiscoverTopologyPublicAPI(t *testing.T) {
	g, err := ParseEdgeList("0-1 1-2 2-3 3-0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverTopology(g, NoCorruption(), AdHocView(g), 0, nil, Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confirmed.Equal(g) {
		t.Fatalf("confirmed = %v", res.Confirmed)
	}
	if !res.Contested.IsEmpty() {
		t.Fatal("contested non-empty on an honest run")
	}
}

func TestHorizonPublicAPI(t *testing.T) {
	g, z := triple(t)
	in, err := NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("horizon run: %q, %v", got, ok)
	}
}

package rmt_test

import (
	"fmt"

	"rmt"
)

// The triple-relay network: reliable transmission despite any single
// corrupted relay.
func ExampleRunProtocol() {
	g, _ := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})
	in, _ := rmt.NewAdHocInstance(g, z, 0, 4)

	res, _ := rmt.RunProtocol(rmt.ProtocolPKA, in, "attack at dawn", rmt.SilentCorruption(rmt.NodeSet(2)), rmt.RunOptions{})
	x, ok := res.DecisionOf(4)
	fmt.Println(x, ok)
	// Output: attack at dawn true
}

// Feasibility is decidable exactly: the weak diamond admits an RMT-cut, so
// no safe algorithm can deliver.
func ExampleFindRMTCut() {
	g, _ := rmt.ParseEdgeList("0-1 0-2 1-3 2-3")
	z := rmt.StructureOf([]int{1}, []int{2})
	in, _ := rmt.NewAdHocInstance(g, z, 0, 3)

	cut, found := rmt.FindRMTCut(in)
	fmt.Println(found, cut.Cut())
	// Output: true {1, 2}
}

// The ⊕ operation merges two players' partial adversary knowledge into the
// worst-case structure consistent with both.
func ExampleJoinViews() {
	z := rmt.StructureOf([]int{1}, []int{2})
	a := z.RestrictTo(rmt.NodeSet(1)) // a player that only sees node 1
	b := z.RestrictTo(rmt.NodeSet(2)) // a player that only sees node 2
	joint := rmt.JoinViews(a, b)

	// Neither player can rule out {1, 2} being corrupted together — the
	// join keeps the "chimera" union even though 𝒵 itself never allows it.
	fmt.Println(joint.Contains(rmt.NodeSet(1, 2)), z.Contains(rmt.NodeSet(1, 2)))
	// Output: true false
}

// 𝒵-CPA decides in the ad hoc model whenever its tight condition holds.
func ExampleRunProtocol_zcpa() {
	g, _ := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	z := rmt.Threshold(rmt.NodeSet(1, 2, 3), 1)
	in, _ := rmt.NewAdHocInstance(g, z, 0, 4)

	fmt.Println(rmt.SolvableZCPA(in))
	res, _ := rmt.RunProtocol(rmt.ProtocolZCPA, in, "retreat", nil, rmt.RunOptions{})
	x, _ := res.DecisionOf(4)
	fmt.Println(x)
	// Output:
	// true
	// retreat
}

// MinimalKnowledgeRadius finds the least topology knowledge that makes RMT
// possible — radius 2 on the chimera network.
func ExampleMinimalKnowledgeRadius() {
	g, _ := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 1-5 3-5 4-6 5-6")
	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})

	k, ok := rmt.MinimalKnowledgeRadius(g, z, 0, 6)
	fmt.Println(k, ok)
	// Output: 2 true
}

// Broadcast delivers to every honest player.
func ExampleRunBroadcast() {
	g, _ := rmt.ParseEdgeList("0-1 0-2 0-3 1-2 1-3 2-3")
	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})
	in, _ := rmt.NewBroadcast(g, z, 0)

	res, _ := rmt.RunBroadcast(in, "assemble", rmt.SilentCorruption(rmt.NodeSet(3)), rmt.Lockstep)
	x1, _ := res.DecisionOf(1)
	x2, _ := res.DecisionOf(2)
	fmt.Println(x1, x2)
	// Output: assemble assemble
}

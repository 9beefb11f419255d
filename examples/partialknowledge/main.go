// Partial knowledge: where extra topology knowledge is exactly what makes
// RMT possible.
//
// The "chimera" network is unsolvable in the ad hoc model: the receiver
// side's joint adversary structure Z_B, computed with the ⊕ operation from
// neighborhood-only views, admits a chimera corruption set {2,3} that no
// single player can refute — so an RMT-cut exists. Give every player a
// radius-2 view and the receiver sees both halves of the chimera at once;
// the ⊕ join kills the fake set and RMT-PKA delivers.
//
// This is the paper's headline phenomenon: solvability depends on the
// *amount* of knowledge, and RMT-PKA achieves RMT at the minimal level
// where any algorithm can (uniqueness, Corollary 6).
//
//	go run ./examples/partialknowledge
package main

import (
	"fmt"
	"log"

	"rmt"
)

func main() {
	// D=0 feeds cut nodes {1,2,3}; relay 4 hangs off {1,2}, relay 5 off
	// {1,3}; R=6 behind {4,5}. Any single cut node may be corrupted.
	g, err := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 1-5 3-5 4-6 5-6")
	if err != nil {
		log.Fatal(err)
	}
	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})

	fmt.Println("sweep of knowledge levels on the chimera network:")
	type level struct {
		name  string
		gamma rmt.ViewFunction
	}
	for _, l := range []level{
		{"ad hoc (γ = neighborhood)", rmt.AdHocView(g)},
		{"radius 1", rmt.RadiusView(g, 1)},
		{"radius 2", rmt.RadiusView(g, 2)},
		{"full (γ = G)", rmt.FullView(g)},
	} {
		in, err := rmt.NewInstance(g, z, l.gamma, 0, 6)
		if err != nil {
			log.Fatal(err)
		}
		if rmt.SolvablePKA(in) {
			fmt.Printf("  %-28s SOLVABLE\n", l.name)
		} else {
			cut, _ := rmt.FindRMTCut(in)
			fmt.Printf("  %-28s unsolvable — RMT-cut C1=%v C2=%v\n", l.name, cut.C1, cut.C2)
		}
	}

	k, ok := rmt.MinimalKnowledgeRadius(g, z, 0, 6)
	if !ok {
		log.Fatal("expected solvable at some radius")
	}
	fmt.Printf("\nminimal knowledge radius: %d (Section 3's minimal γ)\n\n", k)

	// Demonstrate the ⊕ chimera directly: with neighborhood views, nodes
	// 4 and 5 each see only half of {2,3}, so the join admits the union.
	adhoc, err := rmt.NewAdHocInstance(g, z, 0, 6)
	if err != nil {
		log.Fatal(err)
	}
	joint := rmt.JoinViews(adhoc.LocalStructure(4), adhoc.LocalStructure(5), adhoc.LocalStructure(6))
	fmt.Printf("ad hoc joint structure of B={4,5,6} admits {2,3}: %v  ← the chimera\n",
		joint.Contains(rmt.NodeSet(2, 3)))

	r2, err := rmt.NewInstance(g, z, rmt.RadiusView(g, 2), 0, 6)
	if err != nil {
		log.Fatal(err)
	}
	joint2 := rmt.JoinViews(r2.LocalStructure(4), r2.LocalStructure(5), r2.LocalStructure(6))
	fmt.Printf("radius-2 joint structure of B={4,5,6} admits {2,3}: %v ← refuted by R's wider view\n\n",
		joint2.Contains(rmt.NodeSet(2, 3)))

	// And the payoff: run RMT-PKA at radius 2 with cut node 2 silenced.
	res, err := rmt.RunProtocol(rmt.ProtocolPKA, r2, "attack at dawn", rmt.SilentCorruption(rmt.NodeSet(2)), rmt.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	x, ok := res.DecisionOf(6)
	fmt.Printf("RMT-PKA at radius 2, node 2 silenced: receiver decided %q (ok=%v) in %d rounds\n",
		x, ok, res.Rounds)
}

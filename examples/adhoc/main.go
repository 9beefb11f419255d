// Ad hoc networks: 𝒵-CPA end to end, with an attack and an impossibility.
//
// This example walks Section 4 of the paper on two instances:
//
//  1. a solvable layered network, where 𝒵-CPA certifies the dealer value
//     hop by hop even while a corrupted relay pushes a forged value, and
//
//  2. the "weak diamond", where the RMT 𝒵-pp cut proves that NO safe
//     algorithm can deliver — and 𝒵-CPA, being safe, correctly hangs
//     rather than guess.
//
//     go run ./examples/adhoc
package main

import (
	"fmt"
	"log"

	"rmt"
)

func main() {
	solvableLayered()
	impossibleDiamond()
}

func solvableLayered() {
	fmt.Println("— layered network, threshold adversary —")
	// D=0 → layer {1,2,3} → layer {4,5,6} → R=7, complete between layers.
	g, err := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 1-5 1-6 2-4 2-5 2-6 3-4 3-5 3-6 4-7 5-7 6-7")
	if err != nil {
		log.Fatal(err)
	}
	// Global threshold: at most one corrupted relay anywhere.
	z := rmt.Threshold(rmt.NodeSet(1, 2, 3, 4, 5, 6), 1)
	in, err := rmt.NewAdHocInstance(g, z, 0, 7)
	if err != nil {
		log.Fatal(err)
	}
	if !rmt.SolvableZCPA(in) {
		log.Fatal("expected solvable")
	}
	fmt.Println("no RMT Z-pp cut: Z-CPA will deliver (Theorem 7)")

	// Corrupt relay 5 with the full zoo's value-flip strategy.
	zoo := rmt.AttackZoo(in, rmt.NodeSet(5), "retreat at once")
	res, err := rmt.RunProtocol(rmt.ProtocolZCPA, in, "attack at dawn", zoo["value-flip"], rmt.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	x, ok := res.DecisionOf(7)
	fmt.Printf("under value-flip attack by node 5: receiver decided %q (ok=%v) in %d rounds\n\n",
		x, ok, res.Rounds)
}

func impossibleDiamond() {
	fmt.Println("— weak diamond: provably impossible —")
	g, err := rmt.ParseEdgeList("0-1 0-2 1-3 2-3")
	if err != nil {
		log.Fatal(err)
	}
	z := rmt.StructureOf([]int{1}, []int{2})
	in, err := rmt.NewAdHocInstance(g, z, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	cut, found := rmt.FindZppCut(in)
	if !found {
		log.Fatal("expected a Z-pp cut")
	}
	fmt.Printf("RMT Z-pp cut exists: %v — no safe algorithm can deliver (Theorem 8)\n", cut)

	// Run Z-CPA anyway, with relay 1 lying: safety means the receiver
	// stays undecided instead of being fooled.
	zoo := rmt.AttackZoo(in, rmt.NodeSet(1), "retreat at once")
	res, err := rmt.RunProtocol(rmt.ProtocolZCPA, in, "attack at dawn", zoo["value-flip"], rmt.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if x, ok := res.DecisionOf(3); ok {
		fmt.Printf("receiver decided %q — would be unsafe!\n", x)
	} else {
		fmt.Println("receiver stayed undecided: safety preserved where liveness is impossible")
	}
}

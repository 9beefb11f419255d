// Quickstart: reliably transmit a message across a network where any one
// relay may be Byzantine.
//
// The topology is three disjoint relay paths between the dealer (node 0)
// and the receiver (node 4); the adversary structure says any single relay
// may be corrupted. We check feasibility with the paper's tight RMT-cut
// condition, then run RMT-PKA — once honestly and once with a silenced
// relay — and watch the receiver decide the right value both times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rmt"
)

func main() {
	// D = 0 ── {1, 2, 3} ── R = 4, three node-disjoint relay paths.
	g, err := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
	if err != nil {
		log.Fatal(err)
	}
	// The general adversary may corrupt {1} or {2} or {3} (or nobody).
	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})

	// Ad hoc model: every player knows only its own neighborhood.
	in, err := rmt.NewAdHocInstance(g, z, 0, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: %d nodes, %d channels; adversary: %v\n",
		g.NumNodes(), g.NumEdges(), z)

	// Feasibility first: Theorems 3 & 5 give an exact answer.
	if !rmt.SolvablePKA(in) {
		cut, _ := rmt.FindRMTCut(in)
		log.Fatalf("RMT impossible here: %v", cut)
	}
	fmt.Println("feasibility: no RMT-cut — transmission is guaranteed")

	// Honest run.
	res, err := rmt.RunProtocol(rmt.ProtocolPKA, in, "attack at dawn", nil, rmt.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report("honest run", res, 4)

	// Run with relay 2 corrupted and silent (the worst case for delivery).
	res, err = rmt.RunProtocol(rmt.ProtocolPKA, in, "attack at dawn", rmt.SilentCorruption(rmt.NodeSet(2)), rmt.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report("relay 2 silenced", res, 4)
}

func report(label string, res *rmt.Result, receiver int) {
	x, ok := res.DecisionOf(receiver)
	fmt.Printf("%-17s receiver decided %q (ok=%v) in %d rounds, %d messages\n",
		label, x, ok, res.Rounds, res.Metrics.MessagesSent)
}

// Safety demo: the full registered Byzantine strategy zoo against RMT-PKA.
//
// Theorem 4 gives RMT-PKA an unusually strong safety property: the
// receiver never decides a wrong value even against adversaries that
// report fictitious topology, invent ghost nodes, equivocate per neighbor,
// mutate trails, or lie about their local adversary structures. This
// example throws every registered strategy (rmt.AttackStrategies) at both
// a solvable and an unsolvable instance and tallies the outcomes: correct
// decisions and abstentions are both acceptable; a wrong decision never
// happens. For the randomized version of this check across instance
// families, protocols and engines, see `make attacksweep`.
//
//	go run ./examples/attack
package main

import (
	"fmt"
	"log"

	"rmt"
)

func main() {
	fixtures := []struct {
		name     string
		edges    string
		sets     [][]int
		receiver int
	}{
		{"triple-path (solvable)", "0-1 0-2 0-3 1-4 2-4 3-4",
			[][]int{{1}, {2}, {3}}, 4},
		{"weak-diamond (unsolvable)", "0-1 0-2 1-3 2-3",
			[][]int{{1}, {2}}, 3},
	}
	strategies := rmt.AttackStrategies()

	fmt.Printf("%-26s %-15s %-9s %-10s %s\n", "instance", "strategy", "corrupt", "decision", "verdict")
	wrong := 0
	for _, fx := range fixtures {
		g, err := rmt.ParseEdgeList(fx.edges)
		if err != nil {
			log.Fatal(err)
		}
		z := rmt.StructureOf(fx.sets...)
		in, err := rmt.NewAdHocInstance(g, z, 0, fx.receiver)
		if err != nil {
			log.Fatal(err)
		}
		for _, corruptNode := range fx.sets {
			t := rmt.NodeSet(corruptNode...)
			zoo := rmt.AttackZoo(in, t, "retreat at once")
			for _, name := range strategies {
				res, err := rmt.RunProtocol(rmt.ProtocolPKA, in, "attack at dawn", zoo[name], rmt.RunOptions{})
				if err != nil {
					log.Fatal(err)
				}
				decision, verdict := "⊥", "abstained (safe)"
				if x, ok := res.DecisionOf(fx.receiver); ok {
					decision = string(x)
					if x == "attack at dawn" {
						verdict = "correct"
					} else {
						verdict = "WRONG — safety broken!"
						wrong++
					}
				}
				fmt.Printf("%-26s %-15s %-9v %-10q %s\n", fx.name, name, t, decision, verdict)
			}
		}
	}
	fmt.Printf("\nwrong decisions across the zoo: %d (Theorem 4 demands 0)\n", wrong)
	if wrong > 0 {
		log.Fatal("safety violated")
	}
}

package core

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// TestMixedStrategySafetyFuzz corrupts multi-node sets with HETEROGENEOUS
// strategies — every corrupted node draws its own behavior — across random
// instances. The homogeneous zoo (E3) leaves coordinated-but-different
// attacks untested; this fuzzer closes that gap. Safety must hold in every
// run.
func TestMixedStrategySafetyFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized safety fuzz")
	}
	r := rand.New(rand.NewSource(4242))
	kinds := []string{"silent", "value-flip", "path-forgery", "ghost-node", "split-brain", "structure-liar"}
	runs := 0
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(3)
		g := gen.RandomGNP(r, n, 0.5)
		d, rcv := 0, n-1
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 2, 0.45)
		in, err := instance.AdHoc(g, z, d, rcv)
		if err != nil {
			continue
		}
		for _, tset := range in.MaximalCorruptions() {
			if tset.IsEmpty() {
				continue
			}
			// Assemble a per-node mixed strategy map.
			corrupt := make(map[int]network.Process, tset.Len())
			ghostBase := g.MaxID() + 1
			i := 0
			tset.ForEach(func(c int) bool {
				switch kinds[r.Intn(len(kinds))] {
				case "silent":
					corrupt[c] = &Forger{ID: c, Neighbors: in.G.Neighbors(c), DropRelays: true}
				case "value-flip":
					corrupt[c] = NewValueFlipper(in, c, "forged")
				case "path-forgery":
					corrupt[c] = NewPathForger(in, c, "forged")
				case "ghost-node":
					corrupt[c] = NewGhostForger(in, c, ghostBase+i, "forged")
				case "split-brain":
					corrupt[c] = NewSplitBrain(in, c, "forged")
				default:
					corrupt[c] = NewStructureLiar(in, c)
				}
				i++
				return true
			})
			res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: corrupt})
			if err != nil {
				t.Fatal(err)
			}
			runs++
			if got, ok := res.DecisionOf(rcv); ok && got != "real" {
				t.Fatalf("trial %d T=%v: receiver decided %q — SAFETY VIOLATION\nG=%v Z=%v",
					trial, tset, got, g, z)
			}
		}
	}
	if runs < 30 {
		t.Fatalf("only %d adversarial runs executed", runs)
	}
}

// TestMixedStrategyLivenessOnSolvable: on a solvable fixture the receiver
// must still decide correctly whatever mix the (admissible) adversary runs.
func TestMixedStrategyLivenessOnSolvable(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	in := triplePath(t)
	for trial := 0; trial < 30; trial++ {
		c := 1 + r.Intn(3)
		var corrupt map[int]network.Process
		switch trial % 5 {
		case 0:
			corrupt = map[int]network.Process{c: &Forger{ID: c, Neighbors: in.G.Neighbors(c), DropRelays: true}}
		case 1:
			corrupt = map[int]network.Process{c: NewValueFlipper(in, c, "forged")}
		case 2:
			corrupt = map[int]network.Process{c: NewPathForger(in, c, "forged")}
		case 3:
			corrupt = map[int]network.Process{c: NewGhostForger(in, c, 50+trial, "forged")}
		default:
			corrupt = map[int]network.Process{c: NewSplitBrain(in, c, "forged")}
		}
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(4); !ok || got != "real" {
			t.Fatalf("trial %d corrupt=%d: decision = %q, %v", trial, c, got, ok)
		}
	}
}

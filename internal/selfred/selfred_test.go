package selfred

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/byzantine"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

func TestBasicSolvable(t *testing.T) {
	tests := []struct {
		name   string
		middle nodeset.Set
		z      adversary.Structure
		want   bool
	}{
		{"no corruption", nodeset.Of(1, 2), adversary.Trivial(), true},
		{"pair partition", nodeset.Of(1, 2), adversary.FromSlices([]int{1}, []int{2}), false},
		// Two singletons cannot cover three middles — solvable.
		{"three vs singletons", nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1}, []int{2}, []int{3}), true},
		// {1,2} and {3} partition A — unsolvable; but only {1,2}: solvable
		// ({3} side cannot be covered).
		{"single big set", nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1, 2}), true},
		{"big plus singleton", nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1, 2}, []int{3}), false},
		{"overlap not enough", nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1, 2}, []int{2, 3}), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBasic(tt.middle, tt.z)
			if got := b.Solvable(); got != tt.want {
				t.Errorf("Solvable = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBasicSolvableMatchesZppCut(t *testing.T) {
	// The star-degenerate form must agree with the general RMT Z-pp cut
	// checker on the materialized instance.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		k := 2 + r.Intn(4)
		middle := nodeset.Range(1, 1+k)
		z := adversary.Random(r, middle, 1+r.Intn(3), 0.5)
		b := NewBasic(middle, z)
		in, err := b.Instance(0, 1+k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := b.Solvable(), zcpa.Solvable(in); got != want {
			t.Fatalf("trial %d: Basic.Solvable=%v but Z-pp checker says %v (middle=%v z=%v)",
				trial, got, want, middle, z)
		}
	}
}

func TestBasicGraphShape(t *testing.T) {
	b := NewBasic(nodeset.Of(1, 2), adversary.Trivial())
	g := b.Graph(0, 3)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("star shape wrong: %v", g)
	}
	if g.HasEdge(0, 3) || g.HasEdge(1, 2) {
		t.Fatal("star has forbidden edges")
	}
}

func TestPiDecidesTruth(t *testing.T) {
	b := NewBasic(nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1}))
	// Middles 2,3 honest report "x"; middle 1 corrupted reports "y".
	x, ok := Pi(b, map[network.Value]nodeset.Set{
		"x": nodeset.Of(2, 3),
		"y": nodeset.Of(1),
	})
	if !ok || x != "x" {
		t.Fatalf("Pi = %q, %v", x, ok)
	}
}

func TestPiAbstainsOffPromise(t *testing.T) {
	// Pair partition: both values' complements are admissible → ambiguity →
	// abstain.
	b := NewBasic(nodeset.Of(1, 2), adversary.FromSlices([]int{1}, []int{2}))
	if x, ok := Pi(b, map[network.Value]nodeset.Set{
		"x": nodeset.Of(1),
		"y": nodeset.Of(2),
	}); ok {
		t.Fatalf("Pi decided %q off promise", x)
	}
}

func TestPiAbstainsWhenNothingCertifies(t *testing.T) {
	b := NewBasic(nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1}))
	if _, ok := Pi(b, map[network.Value]nodeset.Set{"x": nodeset.Of(1)}); ok {
		t.Fatal("Pi decided with complement {2,3} not admissible")
	}
}

func TestRunPairIndistinguishability(t *testing.T) {
	// Figure 2: the two runs produce the same view, and on a solvable
	// instance exactly the run whose corruption is admissible decides its
	// own dealer value.
	b := NewBasic(nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1}))
	al := nodeset.Of(2, 3) // A_l ∉ Z, complement {1} ∈ Z
	e0, e1, key := RunPair(b, al)
	if key == "" {
		t.Fatal("empty view key")
	}
	_, _, key2 := RunPair(b, al)
	if key != key2 {
		t.Fatal("view keys differ across identical pairs")
	}
	// Both runs see the same wire view, so their decisions coincide as
	// functions of the view (the crux of the ⇐ direction).
	if e0.Decision != e1.Decision || e0.Decided != e1.Decided {
		t.Fatalf("decisions differ on identical views: %+v vs %+v", e0, e1)
	}
	if !e0.Decided || e0.Decision != "0" {
		t.Fatalf("e0 = %+v, want decision 0", e0)
	}
	if !e0.Corrupted.Equal(nodeset.Of(1)) || !e1.Corrupted.Equal(al) {
		t.Fatal("corruption sets mislabeled")
	}
}

func TestRunPairEquationOne(t *testing.T) {
	// decision_{e_0^l}(v) = 0  ⟺  A∖A_l ∈ Z_v ∧ A_l ∉ Z_v  (equation (1)
	// with the abstaining Π).
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		k := 2 + r.Intn(4)
		middle := nodeset.Range(1, 1+k)
		z := adversary.Random(r, middle, 1+r.Intn(3), 0.45)
		b := NewBasic(middle, z)
		var al nodeset.Set
		middle.ForEach(func(v int) bool {
			if r.Intn(2) == 0 {
				al = al.Add(v)
			}
			return true
		})
		e0, _, _ := RunPair(b, al)
		want := b.Z.Contains(middle.Minus(al)) && !b.Z.Contains(al)
		got := e0.Decided && e0.Decision == "0"
		if got != want {
			t.Fatalf("trial %d: e0 decides 0 = %v, equation (1) = %v (middle=%v al=%v z=%v)",
				trial, got, want, middle, al, z)
		}
	}
}

// TestDecisionProtocolEquivalence is the package-local slice of experiment
// E7: Z-CPA with the Π-simulation decider must produce exactly the same
// decisions and round counts as Z-CPA with the direct membership oracle, in
// every run — honest, silent-corrupted, and wrong-value-corrupted.
func TestDecisionProtocolEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	compared := 0
	for trial := 0; trial < 80; trial++ {
		n := 4 + r.Intn(4)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		d, rcv := 0, n-1
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 1+r.Intn(3), 0.4)
		in, err := instance.AdHoc(g, z, d, rcv)
		if err != nil {
			continue
		}
		corruptions := append([]nodeset.Set{nodeset.Empty()}, in.MaximalCorruptions()...)
		for _, tset := range corruptions {
			for _, attack := range []string{"silent", "wrong-value"} {
				var corrupt map[int]network.Process
				if attack == "silent" {
					corrupt = byzantine.SilentProcesses(tset)
				} else {
					corrupt = zcpa.WrongValueProcesses(in, tset, "forged")
				}
				direct, err := protocol.Run(zcpa.Proto{}, in, "real", protocol.Options{Corrupt: corrupt})
				if err != nil {
					t.Fatal(err)
				}
				pi := &PiDecider{LK: in.LocalKnowledge()}
				// Fresh corrupt processes: they are stateful.
				if attack == "silent" {
					corrupt = byzantine.SilentProcesses(tset)
				} else {
					corrupt = zcpa.WrongValueProcesses(in, tset, "forged")
				}
				sim, err := protocol.Run(zcpa.Proto{}, in, "real", protocol.Options{Corrupt: corrupt, Decider: pi})
				if err != nil {
					t.Fatal(err)
				}
				dv, dok := direct.DecisionOf(rcv)
				sv, sok := sim.DecisionOf(rcv)
				if dv != sv || dok != sok {
					t.Fatalf("trial %d T=%v attack=%s: direct=%q/%v sim=%q/%v\nG=%v Z=%v",
						trial, tset, attack, dv, dok, sv, sok, g, z)
				}
				if direct.Rounds != sim.Rounds {
					t.Fatalf("trial %d T=%v attack=%s: rounds differ %d vs %d",
						trial, tset, attack, direct.Rounds, sim.Rounds)
				}
				compared++
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d runs compared", compared)
	}
}

func TestPiDeciderCountsRuns(t *testing.T) {
	z := adversary.FromSlices([]int{1})
	g := graph.New()
	g.AddPath(0, 1, 2)
	g.AddPath(0, 3, 2)
	in, err := instance.AdHoc(g, z, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	pi := &PiDecider{LK: in.LocalKnowledge()}
	if _, err := protocol.Run(zcpa.Proto{}, in, "x", protocol.Options{Decider: pi}); err != nil {
		t.Fatal(err)
	}
	if pi.SimulatedRuns.Load() == 0 {
		t.Fatal("no simulated runs counted")
	}
	if pi.SimulatedRuns.Load()%2 != 0 {
		t.Fatal("runs must come in e0/e1 pairs")
	}
}

func TestPiDeciderUnknownNodeAbstains(t *testing.T) {
	pi := &PiDecider{LK: adversary.LocalKnowledge{}}
	var classes protocol.Tally
	classes.Add("x", 1)
	if _, ok := pi.Decide(7, &classes); ok {
		t.Fatal("decided without local knowledge")
	}
}

// TestPiDeciderConcurrentPlayers runs one shared PiDecider under the
// goroutine engine, where the twelve second-hop relays consult it on their
// own goroutines in the same round: under -race it fails if the
// simulated-run counter is updated unguarded. The run must still agree
// with the direct decider, and the count come in e0/e1 pairs.
func TestPiDeciderConcurrentPlayers(t *testing.T) {
	in, err := benchdef.ChainInstance(12, 2, gen.Radius2)
	if err != nil {
		t.Fatal(err)
	}
	pi := &PiDecider{LK: in.LocalKnowledge()}
	sim, err := protocol.Run(zcpa.Proto{}, in, "x", protocol.Options{Decider: pi, Engine: network.Goroutine})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := protocol.Run(zcpa.Proto{}, in, "x", protocol.Options{Engine: network.Goroutine})
	if err != nil {
		t.Fatal(err)
	}
	sx, sok := sim.DecisionOf(in.Receiver)
	dx, dok := direct.DecisionOf(in.Receiver)
	if sx != dx || sok != dok || sim.Rounds != direct.Rounds {
		t.Fatalf("Π-simulating run decided %q/%v in %d rounds, direct %q/%v in %d", sx, sok, sim.Rounds, dx, dok, direct.Rounds)
	}
	if runs := pi.SimulatedRuns.Load(); runs == 0 || runs%2 != 0 {
		t.Fatalf("%d simulated runs; want a positive even count", runs)
	}
}

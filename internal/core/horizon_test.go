package core

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// Horizon-PKA ablation tests: the bounded-path variant trades solvable
// instances for message complexity while preserving safety.

func TestHorizonDeliversOnShortPaths(t *testing.T) {
	// Triple path: all D–R paths have 3 nodes; horizon 3 changes nothing.
	in := triplePath(t)
	res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(1)), Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestHorizonSavesMessages(t *testing.T) {
	// On a layered network most simple paths are long detours; a tight
	// horizon prunes them.
	g, d, r := gen.Layered(2, 3)
	in, err := instance.New(g, adversary.Trivial(), view.AdHoc(g), d, r)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := protocol.Run(Proto{}, in, "x", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := protocol.Run(Proto{}, in, "x", protocol.Options{Horizon: 4}) // direct layer paths only
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bounded.DecisionOf(r); ok {
		// Horizon-4 keeps only D→l0→l1→R paths, but G_M's bounded span
		// still contains longer combination paths, so the receiver may
		// legitimately abstain. Either outcome is fine; what matters is
		// safety and savings.
		if got, _ := bounded.DecisionOf(r); got != "x" {
			t.Fatalf("bounded run decided wrong value %q", got)
		}
	}
	if bounded.Metrics.MessagesSent >= unbounded.Metrics.MessagesSent {
		t.Fatalf("horizon saved nothing: %d vs %d",
			bounded.Metrics.MessagesSent, unbounded.Metrics.MessagesSent)
	}
}

func TestHorizonDeliversOnLine(t *testing.T) {
	// A line has exactly one path; horizon = its length keeps liveness,
	// horizon below it abstains.
	g := gen.Line(5)
	in, err := instance.New(g, adversary.Trivial(), view.AdHoc(g), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := protocol.Run(Proto{}, in, "x", protocol.Options{Horizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := exact.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("horizon=5 on 5-line: decision %q, %v", got, ok)
	}
	tooShort, err := protocol.Run(Proto{}, in, "x", protocol.Options{Horizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tooShort.DecisionOf(4); ok {
		t.Fatal("horizon=4 on 5-line decided — impossible, the only path has 5 nodes")
	}
}

func TestHorizonSafetyUnderAttack(t *testing.T) {
	// Safety must survive the full strategy zoo with a horizon active.
	in := triplePath(t)
	for _, m := range in.MaximalCorruptions() {
		for name, corrupt := range Strategies(in, m, "forged") {
			res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: corrupt, Horizon: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := res.DecisionOf(in.Receiver); ok && got != "real" {
				t.Fatalf("%s corrupt=%v: horizon run decided %q — SAFETY VIOLATION",
					name, m, got)
			}
		}
	}
}

func TestHorizonNeverBeatsUnbounded(t *testing.T) {
	// Horizon-PKA decides only if unbounded PKA decides (it sees a
	// subgraph of the evidence).
	fixtures := []*instance.Instance{triplePath(t), weakDiamond(t)}
	for _, in := range fixtures {
		for _, m := range in.MaximalCorruptions() {
			for _, h := range []int{3, 4, 5} {
				bounded, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(m), Horizon: h})
				if err != nil {
					t.Fatal(err)
				}
				unbounded, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(m)})
				if err != nil {
					t.Fatal(err)
				}
				_, bOK := bounded.DecisionOf(in.Receiver)
				_, uOK := unbounded.DecisionOf(in.Receiver)
				if bOK && !uOK {
					t.Fatalf("horizon=%d decided where unbounded PKA did not", h)
				}
			}
		}
	}
}

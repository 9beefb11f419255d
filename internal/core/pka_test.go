package core

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

func mustGraph(t *testing.T, edges string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func adhocInstance(t *testing.T, edges string, z adversary.Structure, d, r int) *instance.Instance {
	t.Helper()
	in, err := instance.AdHoc(mustGraph(t, edges), z, d, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// triplePath: three disjoint relays, singleton corruptions — solvable.
// The topology and verdicts live in internal/feasibility.
func triplePath(t *testing.T) *instance.Instance {
	t.Helper()
	return feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
}

// weakDiamond: two disjoint relays, either corruptible — unsolvable.
func weakDiamond(t *testing.T) *instance.Instance {
	t.Helper()
	return feasibility.MustByName(feasibility.WeakDiamond).MustBuild(gen.AdHoc)
}

func TestDealerRule(t *testing.T) {
	in := adhocInstance(t, "0-1", adversary.Trivial(), 0, 1)
	res, err := protocol.Run(Proto{}, in, "attack at dawn", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(1); !ok || got != "attack at dawn" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestHonestLineDelivery(t *testing.T) {
	in := adhocInstance(t, "0-1 1-2", adversary.Trivial(), 0, 2)
	res, err := protocol.Run(Proto{}, in, "m", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(2); !ok || got != "m" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestHonestLongerLine(t *testing.T) {
	in := adhocInstance(t, "0-1 1-2 2-3 3-4", adversary.Trivial(), 0, 4)
	res, err := protocol.Run(Proto{}, in, "deep", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "deep" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestTriplePathResilient(t *testing.T) {
	in := triplePath(t)
	for _, c := range []int{1, 2, 3} {
		res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(c))})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(4); !ok || got != "x" {
			t.Fatalf("corrupt=%d: decision = %q, %v", c, got, ok)
		}
	}
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Resilient = false")
	}
}

func TestWeakDiamondUnsolvable(t *testing.T) {
	in := weakDiamond(t)
	cut, found := FindRMTCut(in)
	if !found {
		t.Fatal("no RMT-cut on the weak diamond")
	}
	if !in.Z.Contains(cut.C1) {
		t.Fatalf("C1 = %v not admissible", cut.C1)
	}
	if Solvable(in) {
		t.Fatal("Solvable despite cut")
	}
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Resilient despite cut")
	}
}

func TestDisconnectedTrivialCut(t *testing.T) {
	in := adhocInstance(t, "0-1 2-3", adversary.Trivial(), 0, 3)
	cut, found := FindRMTCut(in)
	if !found || !cut.Cut().IsEmpty() {
		t.Fatalf("cut = %v found=%v, want empty cut", cut, found)
	}
}

func TestChimeraKnowledgeSeparation(t *testing.T) {
	// The knowledge-separation fixture (DESIGN.md / E5, E6); topology,
	// structure and the per-level verdicts live in internal/feasibility.
	chimera := feasibility.MustByName(feasibility.Chimera)

	adhoc := chimera.MustBuild(gen.AdHoc)
	if Solvable(adhoc) {
		t.Fatal("chimera instance solvable in the ad hoc model")
	}
	cut, found := FindRMTCut(adhoc)
	if !found {
		t.Fatal("no cut found in ad hoc model")
	}
	if !in2(cut.C2, 2, 3) {
		t.Logf("note: witness cut was %v (chimera {2,3} expected but any witness is valid)", cut)
	}

	r2 := chimera.MustBuild(gen.Radius2)
	if !Solvable(r2) {
		cut, _ := FindRMTCut(r2)
		t.Fatalf("chimera instance unsolvable at radius 2; cut = %v", cut)
	}

	full := chimera.MustBuild(gen.FullKnowledge)
	if !Solvable(full) {
		t.Fatal("chimera instance unsolvable at full knowledge")
	}

	// Operational agreement: PKA fails somewhere in ad hoc, succeeds
	// everywhere at radius 2.
	okAdhoc, err := protocol.Resilient(Proto{}, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if okAdhoc {
		t.Fatal("PKA resilient in ad hoc model despite RMT-cut")
	}
	okR2, err := protocol.Resilient(Proto{}, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !okR2 {
		t.Fatal("PKA not resilient at radius 2 despite no RMT-cut")
	}
}

func in2(s nodeset.Set, a, b int) bool { return s.Contains(a) && s.Contains(b) }

func TestSafetyAgainstFullStrategyZoo(t *testing.T) {
	fixtures := []struct {
		name string
		in   *instance.Instance
	}{
		{"triple-path", triplePath(t)},
		{"weak-diamond", weakDiamond(t)},
	}
	for _, fx := range fixtures {
		for _, m := range fx.in.MaximalCorruptions() {
			zoo := Strategies(fx.in, m, "forged")
			for name, corrupt := range zoo {
				res, err := protocol.Run(Proto{}, fx.in, "real", protocol.Options{Corrupt: corrupt})
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := res.DecisionOf(fx.in.Receiver); ok && got != "real" {
					t.Errorf("%s/%s corrupt=%v: receiver decided %q — SAFETY VIOLATION",
						fx.name, name, m, got)
				}
			}
		}
	}
}

func TestPathForgeryDoesNotBlockLiveness(t *testing.T) {
	// On the solvable triple path, a path forger must neither trick nor
	// stall the receiver.
	in := triplePath(t)
	for _, c := range []int{1, 2, 3} {
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{c: NewPathForger(in, c, "forged")}})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.DecisionOf(4)
		if !ok {
			t.Fatalf("corrupt=%d: receiver stalled by path forgery", c)
		}
		if got != "real" {
			t.Fatalf("corrupt=%d: decided %q", c, got)
		}
	}
}

func TestGhostForgerySafety(t *testing.T) {
	in := weakDiamond(t)
	for _, c := range []int{1, 2} {
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{c: NewGhostForger(in, c, 9, "forged")}})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(3); ok && got != "real" {
			t.Fatalf("corrupt=%d: ghost forgery yielded %q — SAFETY VIOLATION", c, got)
		}
	}
}

func TestSplitBrainSafety(t *testing.T) {
	in := triplePath(t)
	res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{2: NewSplitBrain(in, 2, "forged")}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "real" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestStructureLiarCannotStallSolvable(t *testing.T) {
	// A corrupted node claiming "everyone may be corrupted" must not stop
	// the receiver on a solvable instance: the valid-set search can simply
	// exclude the liar.
	in := triplePath(t)
	res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{1: NewStructureLiar(in, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "real" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestGoroutineEngineAgrees(t *testing.T) {
	in := triplePath(t)
	for _, c := range []int{1, 2, 3} {
		a, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(c))})
		if err != nil {
			t.Fatal(err)
		}
		b, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(c)), Engine: network.Goroutine})
		if err != nil {
			t.Fatal(err)
		}
		av, aok := a.DecisionOf(4)
		bv, bok := b.DecisionOf(4)
		if av != bv || aok != bok {
			t.Fatalf("engines disagree: %q/%v vs %q/%v", av, aok, bv, bok)
		}
	}
}

func TestDealerRuleBeatsForgery(t *testing.T) {
	// R adjacent to D plus a corrupt alternative path: the dealer rule must
	// fire with the true value regardless.
	in := adhocInstance(t, "0-1 0-2 2-1", adversary.FromSlices([]int{2}), 0, 1)
	res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{2: NewValueFlipper(in, 2, "forged")}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(1); !ok || got != "real" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestMessagesHaveCanonicalKeys(t *testing.T) {
	v1 := ValueMsg{X: "a", P: graph.Path{0, 1}}
	v2 := ValueMsg{X: "a", P: graph.Path{0, 1}}
	if v1.Key() != v2.Key() {
		t.Fatal("equal ValueMsgs have different keys")
	}
	if v1.Key() == (ValueMsg{X: "a", P: graph.Path{0, 2}}).Key() {
		t.Fatal("different paths share a key")
	}
	if v1.BitSize() <= 0 {
		t.Fatal("BitSize not positive")
	}
	g := graph.New()
	g.AddEdge(0, 1)
	ni := NodeInfo{Node: 0, View: g, Z: adversary.Identity()}
	i1 := InfoMsg{Info: ni, P: graph.Path{0}}
	if i1.BitSize() <= 0 || i1.Key() == "" {
		t.Fatal("InfoMsg size/key wrong")
	}
	ni2 := NodeInfo{Node: 1, View: g, Z: adversary.Identity()}
	if ni.VersionKey() == ni2.VersionKey() {
		t.Fatal("different nodes share a version key")
	}
}

func TestRelayAdmissionRules(t *testing.T) {
	// A relay must drop messages whose trail contains itself or whose tail
	// is not the sender.
	in := adhocInstance(t, "0-1 1-2", adversary.Trivial(), 0, 2)
	relay := sharedOf(in).relay(in, 1, 0)
	var sent []network.Message
	out := func(to int, p network.Payload) {
		sent = append(sent, network.Message{From: 1, To: to, Payload: p})
	}
	relay.Round(1, []network.Message{
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{5, 1}}}, // contains self
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{5, 9}}}, // tail != sender
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{}}},     // empty trail
	}, out)
	if len(sent) != 0 {
		t.Fatalf("relay forwarded %d inadmissible messages", len(sent))
	}
	relay.Round(2, []network.Message{
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{0}}},
	}, out)
	if len(sent) != 2 { // neighbors 0 and 2
		t.Fatalf("relay sent %d messages, want 2", len(sent))
	}
	vm, ok := sent[0].Payload.(ValueMsg)
	if !ok || !vm.P.Equal(graph.Path{0, 1}) {
		t.Fatalf("relayed trail = %v", sent[0].Payload)
	}
}

// TestForgerAdmissionRules: a corrupted Forger relays through the same
// admission check as an honest relay, so a trail that does not end at its
// sender is dropped rather than extended.
func TestForgerAdmissionRules(t *testing.T) {
	in := adhocInstance(t, "0-1 1-2", adversary.Trivial(), 0, 2)
	f := NewValueFlipper(in, 1, "forged")
	var sent []network.Message
	out := func(to int, p network.Payload) {
		sent = append(sent, network.Message{From: 1, To: to, Payload: p})
	}
	f.Round(1, []network.Message{
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{5, 9}}},            // tail != sender
		{From: 2, To: 1, Payload: InfoMsg{Info: TrueInfo(in, 0), P: graph.Path{0}}}, // tail != sender
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{0, 1}}},            // contains self
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{}}},                // empty trail
		{From: 0, To: 1, Payload: ValueMsg{X: "x", P: graph.Path{0}}},               // admissible
		{From: 2, To: 1, Payload: InfoMsg{Info: TrueInfo(in, 2), P: graph.Path{2}}}, // admissible
	}, out)
	if len(sent) != 4 { // two admissible messages, to neighbors 0 and 2
		t.Fatalf("forger sent %d messages, want 4: %v", len(sent), sent)
	}
	vm, ok := sent[0].Payload.(ValueMsg)
	if !ok || vm.X != "forged" || !vm.P.Equal(graph.Path{0, 1}) {
		t.Fatalf("flipped relay = %v", sent[0].Payload)
	}
	im, ok := sent[2].Payload.(InfoMsg)
	if !ok || im.Info.Node != 2 || !im.P.Equal(graph.Path{2, 1}) {
		t.Fatalf("relayed claim = %v", sent[2].Payload)
	}
}

func TestReceiverDiscardsForgedTails(t *testing.T) {
	in := adhocInstance(t, "0-1 1-2", adversary.Trivial(), 0, 2)
	r := newReceiver(in, sharedOf(in), 0)
	// Type-1 claiming a direct dealer send, but delivered by node 1.
	r.Round(1, []network.Message{
		{From: 1, To: 2, Payload: ValueMsg{X: "forged", P: graph.Path{0}}},
	}, nil)
	if _, ok := r.Decision(); ok {
		t.Fatal("receiver accepted a forged dealer-rule message")
	}
	if len(r.vals) != 0 {
		t.Fatal("forged trail was ingested")
	}
}

func TestRMTCutAgreesWithZppIntuition(t *testing.T) {
	// On ad hoc instances the RMT-cut and Z-pp-cut conditions coincide in
	// practice for these fixtures: both say triple-path solvable, weak
	// diamond not. (The formal equivalence for the ad hoc slice is
	// exercised statistically in the eval package.)
	if !Solvable(triplePath(t)) {
		t.Fatal("triple path unsolvable")
	}
	if Solvable(weakDiamond(t)) {
		t.Fatal("weak diamond solvable")
	}
}

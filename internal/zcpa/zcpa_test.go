package zcpa

import (
	"math/rand"
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

// junk is an erroneous payload — "a message of different form" in the
// paper's terms — that honest players must recognize and discard.
type junk struct{ seq int }

func (j junk) BitSize() int { return 8 }
func (j junk) Key() string  { return "junk:" + string(rune('a'+j.seq)) }

// noisemaker floods its neighbors with junk every round (a minimal local
// stand-in for the attack library's Spammer, which cannot be imported here
// without a test-only cycle).
type noisemaker struct{ neighbors nodeset.Set }

func (*noisemaker) Init(network.Outbox) {}
func (n *noisemaker) Round(round int, _ []network.Message, out network.Outbox) bool {
	n.neighbors.ForEach(func(u int) bool {
		for i := 0; i < 3; i++ {
			out(u, junk{seq: i})
		}
		return true
	})
	return true
}
func (*noisemaker) Decision() (network.Value, bool) { return "", false }

// echoer bounces each received payload back to all neighbors once (a local
// stand-in for the attack library's Replayer).
type echoer struct {
	neighbors nodeset.Set
	seen      map[string]bool
}

func (*echoer) Init(network.Outbox) {}
func (e *echoer) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		if e.seen == nil {
			e.seen = make(map[string]bool)
		}
		if e.seen[m.Payload.Key()] {
			continue
		}
		e.seen[m.Payload.Key()] = true
		e.neighbors.ForEach(func(u int) bool {
			out(u, m.Payload)
			return true
		})
	}
	return true
}
func (*echoer) Decision() (network.Value, bool) { return "", false }

func mustInstance(t *testing.T, edges string, z adversary.Structure, d, r int) *instance.Instance {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	in, err := instance.AdHoc(g, z, d, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// triplePath: three disjoint relay paths 0→{1,2,3}→4; Z corrupts any single
// relay. Solvable: two honest relays always certify at R. The topology and
// verdicts live in internal/feasibility.
func triplePath(t *testing.T) *instance.Instance {
	t.Helper()
	return feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
}

// weakDiamond: two disjoint relay paths with Z corrupting either relay.
// Unsolvable in the ad hoc model: one honest relay is indistinguishable
// from one corrupted relay.
func weakDiamond(t *testing.T) *instance.Instance {
	t.Helper()
	return feasibility.MustByName(feasibility.WeakDiamond).MustBuild(gen.AdHoc)
}

func TestDealerNeighborDecides(t *testing.T) {
	in := mustInstance(t, "0-1", adversary.Trivial(), 0, 1)
	res, err := protocol.Run(Proto{}, in, "attack at dawn", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(1); !ok || got != "attack at dawn" {
		t.Fatalf("receiver decision = %q, %v", got, ok)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestMultiHopRelay(t *testing.T) {
	in := mustInstance(t, "0-1 1-2 2-3", adversary.Trivial(), 0, 3)
	res, err := protocol.Run(Proto{}, in, "m", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(3); !ok || got != "m" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
	// One decision per round after the first: 3 hops.
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestTriplePathResilient(t *testing.T) {
	in := triplePath(t)
	for _, corrupted := range []int{1, 2, 3} {
		res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(corrupted))})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(4); !ok || got != "x" {
			t.Fatalf("corrupt=%d: decision = %q, %v", corrupted, got, ok)
		}
	}
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Resilient = false on the triple-path instance")
	}
}

func TestWeakDiamondNotResilient(t *testing.T) {
	in := weakDiamond(t)
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Resilient = true on the weak diamond")
	}
}

func TestZppCutOnWeakDiamond(t *testing.T) {
	in := weakDiamond(t)
	cut, found := FindRMTZppCut(in)
	if !found {
		t.Fatal("no RMT Z-pp cut found on the weak diamond")
	}
	if !cut.Cut().Equal(nodeset.Of(1, 2)) {
		t.Fatalf("cut = %v, want {1, 2}", cut.Cut())
	}
	if !in.Z.Contains(cut.C1) {
		t.Fatalf("C1 = %v not admissible", cut.C1)
	}
	if Solvable(in) {
		t.Fatal("Solvable = true despite a cut")
	}
}

func TestNoZppCutOnTriplePath(t *testing.T) {
	in := triplePath(t)
	if cut, found := FindRMTZppCut(in); found {
		t.Fatalf("unexpected cut %v", cut)
	}
	if !Solvable(in) {
		t.Fatal("Solvable = false without a cut")
	}
}

func TestDisconnectedIsTrivialCut(t *testing.T) {
	in := mustInstance(t, "0-1 2-3", adversary.Trivial(), 0, 3)
	cut, found := FindRMTZppCut(in)
	if !found {
		t.Fatal("disconnected instance has no cut?")
	}
	if !cut.Cut().IsEmpty() {
		t.Fatalf("cut = %v, want empty", cut.Cut())
	}
}

func TestAdjacentDealerReceiverAlwaysSolvable(t *testing.T) {
	// Even a structure corrupting all relays cannot cut an edge D-R.
	in := mustInstance(t, "0-3 0-1 1-3 0-2 2-3",
		adversary.FromSlices([]int{1, 2}), 0, 3)
	if _, found := FindRMTZppCut(in); found {
		t.Fatal("found a cut despite D-R edge")
	}
	ok, err := protocol.Resilient(Proto{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("not resilient despite D-R edge")
	}
}

func TestSafetyUnderWrongValueAttack(t *testing.T) {
	in := triplePath(t)
	for _, corrupted := range []int{1, 2, 3} {
		procs := WrongValueProcesses(in, nodeset.Of(corrupted), "forged")
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: procs})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.DecisionOf(4)
		if !ok {
			t.Fatalf("corrupt=%d: receiver undecided under wrong-value attack", corrupted)
		}
		if got != "real" {
			t.Fatalf("corrupt=%d: receiver decided %q — SAFETY VIOLATION", corrupted, got)
		}
	}
}

func TestSafetyOnUnsolvableInstance(t *testing.T) {
	// Safety must hold even where liveness cannot: on the weak diamond the
	// receiver may stay undecided but must never decide wrong.
	in := weakDiamond(t)
	for _, corrupted := range []int{1, 2} {
		procs := WrongValueProcesses(in, nodeset.Of(corrupted), "forged")
		res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: procs})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(3); ok && got != "real" {
			t.Fatalf("corrupt=%d: receiver decided %q — SAFETY VIOLATION", corrupted, got)
		}
	}
}

func TestTwoFacedAttackSafety(t *testing.T) {
	in := triplePath(t)
	attacker := &TwoFaced{
		TellTruth: nodeset.Of(0),
		TellLie:   nodeset.Of(4),
		Truth:     "real",
		Lie:       "forged",
	}
	res, err := protocol.Run(Proto{}, in, "real", protocol.Options{Corrupt: map[int]network.Process{2: attacker}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "real" {
		t.Fatalf("decision = %q, %v", got, ok)
	}
}

func TestErroneousMessagesIgnored(t *testing.T) {
	in := triplePath(t)
	spammer := &noisemaker{neighbors: in.G.Neighbors(2)}
	res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: map[int]network.Process{2: spammer}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v under spam", got, ok)
	}
}

func TestReplayerHarmless(t *testing.T) {
	in := triplePath(t)
	rep := &echoer{neighbors: in.G.Neighbors(3)}
	res, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: map[int]network.Process{3: rep}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.DecisionOf(4); !ok || got != "x" {
		t.Fatalf("decision = %q, %v under replay", got, ok)
	}
}

func TestCorruptMapCannotTouchDealerReceiver(t *testing.T) {
	in := triplePath(t)
	procs := NewProcessesWithDecider(in, "x", protocol.Silence(nodeset.Of(0, 4)), ResolveDecider(in, protocol.Options{}))
	if _, ok := procs[0].(*Dealer); !ok {
		t.Fatal("dealer was replaced by a corrupt process")
	}
	if _, ok := procs[4].(*Player); !ok {
		t.Fatal("receiver was replaced by a corrupt process")
	}
}

func TestGoroutineEngineAgrees(t *testing.T) {
	in := triplePath(t)
	for _, corrupted := range []int{1, 2, 3} {
		a, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(corrupted))})
		if err != nil {
			t.Fatal(err)
		}
		b, err := protocol.Run(Proto{}, in, "x", protocol.Options{Corrupt: protocol.Silence(nodeset.Of(corrupted)), Engine: network.Goroutine})
		if err != nil {
			t.Fatal(err)
		}
		if av, aok := a.DecisionOf(4); true {
			if bv, bok := b.DecisionOf(4); av != bv || aok != bok {
				t.Fatalf("engines disagree: %q/%v vs %q/%v", av, aok, bv, bok)
			}
		}
	}
}

// TestTightness is the package-local slice of experiment E4: on random
// small ad hoc instances, Z-pp-cut existence must match Z-CPA failure
// exactly (Theorems 7 and 8).
func TestTightness(t *testing.T) {
	r := rand.New(rand.NewSource(2016))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		n := 4 + r.Intn(4)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.45 {
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
		solvable := Solvable(in)
		resilient, err := protocol.Resilient(Proto{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if solvable != resilient {
			t.Fatalf("trial %d: cut condition says solvable=%v but simulation says %v\nG=%v\nZ=%v",
				trial, solvable, resilient, g, z)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func TestRoundComplexityLinear(t *testing.T) {
	// Z-CPA decides within n rounds: at least one player decides per round
	// (Theorem 9's complexity analysis).
	for n := 3; n <= 12; n++ {
		g := graph.New()
		for i := 0; i < n-1; i++ {
			g.AddEdge(i, i+1)
		}
		in, err := instance.AdHoc(g, adversary.Trivial(), 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := protocol.Run(Proto{}, in, "x", protocol.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.DecisionOf(n - 1); !ok {
			t.Fatalf("n=%d: undecided", n)
		}
		if res.Rounds > n {
			t.Fatalf("n=%d: %d rounds exceeds n", n, res.Rounds)
		}
	}
}

func TestValuePayload(t *testing.T) {
	p := ValuePayload{X: "ab"}
	if p.BitSize() != 16 {
		t.Fatalf("BitSize = %d", p.BitSize())
	}
	if p.Key() != "v:ab" {
		t.Fatalf("Key = %q", p.Key())
	}
}

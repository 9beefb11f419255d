package mbrb_test

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// kInstance builds the standard MBRB test instance: K_n with dealer 0,
// receiver n−1, and a global t-threshold structure over the interior nodes.
func kInstance(t *testing.T, n, thr int) *instance.Instance {
	t.Helper()
	g := gen.Complete(n)
	universe := g.Nodes().Remove(0).Remove(n - 1)
	in, err := instance.AdHoc(g, adversary.GlobalThreshold(universe, thr), 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestHonestRunAllDeliver pins the fault-free behavior: every player
// delivers x_D, identically on every in-process engine.
func TestHonestRunAllDeliver(t *testing.T) {
	in := kInstance(t, 6, 1)
	var key string
	for _, eng := range []network.Engine{network.Lockstep, network.Goroutine, network.Async} {
		res, err := protocol.Run(mbrb.Proto{}, in, "x", protocol.Options{Engine: eng, MABudget: 1, RecordTranscript: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decisions) != 6 {
			t.Fatalf("%s: %d players delivered, want all 6", eng.Name(), len(res.Decisions))
		}
		for v, x := range res.Decisions {
			if x != "x" {
				t.Errorf("%s: player %d delivered %q", eng.Name(), v, x)
			}
		}
		if key == "" {
			key = res.Transcript.Key()
		} else if res.Transcript.Key() != key {
			t.Errorf("%s: transcript differs from lockstep", eng.Name())
		}
	}
}

// TestToleratesByzantineAndSuppression exercises the full adversary at the
// just-feasible bound n = 3t+2d+1: t silent Byzantine players plus a
// d-victim eclipse. Every correct non-victim must still deliver.
func TestToleratesByzantineAndSuppression(t *testing.T) {
	in := kInstance(t, 6, 1) // n=6, t=1, d=1: 6 > 3+2
	corrupt := nodeset.Of(1)
	res, err := protocol.Run(mbrb.Proto{}, in, "x", protocol.Options{
		Corrupt:      protocol.Silence(corrupt),
		MABudget:     1,
		MsgAdversary: network.NewEclipse(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 3, 4, 5} {
		if got, ok := res.DecisionOf(v); !ok || got != "x" {
			t.Errorf("correct non-victim %d: delivered %q, %v; want \"x\"", v, got, ok)
		}
	}
	if _, ok := res.DecisionOf(2); ok {
		t.Error("eclipsed player 2 delivered despite total suppression")
	}
	if err := res.Metrics.Reconcile(); err != nil {
		t.Error(err)
	}
}

// TestInfeasibleBoundNobodyDelivers pins the other side of the bound: at
// n = 3t+2d the eclipse-plus-silence adversary starves the echo quorum
// (n−t−d = 2t+d < qE = 2t+d+1) and no correct player ever delivers.
func TestInfeasibleBoundNobodyDelivers(t *testing.T) {
	in := kInstance(t, 5, 1) // n=5 = 3t+2d with t=1, d=1
	res, err := protocol.Run(mbrb.Proto{}, in, "x", protocol.Options{
		Corrupt:      protocol.Silence(nodeset.Of(1)),
		MABudget:     1,
		MsgAdversary: network.NewEclipse(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Errorf("%d players delivered at the infeasible bound, want none: %v", len(res.Decisions), res.Decisions)
	}
}

// forger is a Byzantine process that floods forged echoes and readys for a
// value the dealer never sent, then goes silent.
type forger struct{ neighbors nodeset.Set }

func (f *forger) Init(out network.Outbox) {
	f.neighbors.ForEach(func(u int) bool {
		out(u, mbrb.Msg{Phase: mbrb.PhaseEcho, X: "evil"})
		out(u, mbrb.Msg{Phase: mbrb.PhaseReady, X: "evil"})
		out(u, mbrb.Msg{Phase: mbrb.PhaseInit, X: "evil"}) // non-dealer INIT: ignored
		return true
	})
}
func (f *forger) Round(int, []network.Message, network.Outbox) bool { return false }
func (f *forger) Decision() (network.Value, bool)                   { return "", false }

// TestForgedQuorumsCannotSubvert pins safety: t forged echo/ready senders
// stay below every quorum, so all honest players deliver the dealer's value.
func TestForgedQuorumsCannotSubvert(t *testing.T) {
	in := kInstance(t, 6, 1)
	corrupt := map[int]network.Process{1: &forger{neighbors: in.G.Neighbors(1)}}
	res, err := protocol.Run(mbrb.Proto{}, in, "x", protocol.Options{Corrupt: corrupt, MABudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 2, 3, 4, 5} {
		if got, ok := res.DecisionOf(v); !ok || got != "x" {
			t.Errorf("player %d delivered %q, %v; want \"x\"", v, got, ok)
		}
	}
}

// TestQuorums pins the threshold arithmetic.
func TestQuorums(t *testing.T) {
	cases := []struct {
		n, t, d            int
		echo, amp, deliver int
	}{
		{4, 1, 0, 3, 2, 3},
		{6, 1, 1, 4, 2, 4},
		{10, 2, 1, 7, 3, 6},
		{8, 1, 2, 5, 2, 5},
	}
	for _, c := range cases {
		q := mbrb.NewQuorums(c.n, c.t, c.d)
		if q.Echo != c.echo || q.Amp != c.amp || q.Deliver != c.deliver {
			t.Errorf("NewQuorums(%d,%d,%d) = %+v, want {%d %d %d}",
				c.n, c.t, c.d, q, c.echo, c.amp, c.deliver)
		}
	}
	if got := mbrb.Threshold(kInstance(t, 8, 2)); got != 2 {
		t.Errorf("Threshold = %d, want 2", got)
	}
	if got := mbrb.Threshold(kInstance(t, 4, 0)); got != 0 {
		t.Errorf("Threshold of trivial structure = %d, want 0", got)
	}
}

// TestAssembleErrors covers the operating-assumption checks.
func TestAssembleErrors(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	path, err := instance.AdHoc(g, adversary.GlobalThreshold(nodeset.Empty(), 0), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.Run(mbrb.Proto{}, path, "x", protocol.Options{}); err == nil {
		t.Error("incomplete network accepted")
	}
	if !mbrb.Complete(kInstance(t, 4, 1)) {
		t.Error("K4 reported incomplete")
	}
	if _, err := protocol.Run(mbrb.Proto{}, kInstance(t, 4, 1), "x", protocol.Options{MABudget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestBroadcastKeyAllocatesNothing: a player's broadcast payload carries
// its key rendered once, so the engine's inbox sort, which compares keys of
// one sender's payloads, allocates nothing per comparison. A literal Msg
// renders the same key.
func TestBroadcastKeyAllocatesNothing(t *testing.T) {
	in := kInstance(t, 4, 1)
	dealer := mbrb.NewPlayer(in, in.Dealer, "x", mbrb.NewQuorums(4, 1, 0))
	var sent []network.Payload
	dealer.Init(func(_ int, p network.Payload) { sent = append(sent, p) })
	if len(sent) != 3 {
		t.Fatalf("dealer sent %d payloads, want 3", len(sent))
	}
	p := sent[0]
	if want := (mbrb.Msg{Phase: mbrb.PhaseInit, X: "x"}).Key(); p.Key() != want {
		t.Fatalf("broadcast key %q, literal key %q", p.Key(), want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Key() }); n != 0 {
		t.Fatalf("Key on a broadcast payload allocates %.0f times per call", n)
	}
}

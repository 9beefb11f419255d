package discovery

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

func mustGraph(t *testing.T, edges string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseEdgeList(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHonestDiscoveryRecoversGraph(t *testing.T) {
	g := mustGraph(t, "0-1 1-2 2-3 3-0 1-3")
	res, err := Run(g, adversary.Trivial(), view.AdHoc(g), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confirmed.Equal(g) {
		t.Fatalf("confirmed = %v, want %v", res.Confirmed, g)
	}
	if !res.Contested.IsEmpty() {
		t.Fatalf("contested = %v on an honest run", res.Contested)
	}
	if !res.Known.Equal(g.Nodes()) {
		t.Fatalf("known = %v", res.Known)
	}
}

func TestDiscoveryOnDisconnectedPart(t *testing.T) {
	g := mustGraph(t, "0-1 2-3")
	res, err := Run(g, adversary.Trivial(), view.AdHoc(g), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Known.Contains(2) || res.Known.Contains(3) {
		t.Fatal("learned about an unreachable component")
	}
	if !res.Confirmed.HasEdge(0, 1) {
		t.Fatal("own edge missing")
	}
}

func TestSilentCorruptionHidesOnlyItself(t *testing.T) {
	// Ring 0-1-2-3-4-0; node 2 silent. The observer still learns the rest
	// via the other arc, and edges adjacent to 2 are confirmed only if
	// both endpoints claim them — 2 claims nothing, so 1-2 and 2-3 stay
	// unconfirmed, but are present in the honest claims (Claimed).
	g := gen.Ring(5)
	res, err := Run(g, adversary.FromSlices([]int{2}), view.AdHoc(g), 0,
		protocol.Silence(nodeset.Of(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {3, 4}, {4, 0}} {
		if !res.Confirmed.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v not confirmed", e)
		}
	}
	if res.Confirmed.HasEdge(1, 2) || res.Confirmed.HasEdge(2, 3) {
		t.Error("silent node's edges got bilateral confirmation")
	}
	if !res.Claimed.HasEdge(1, 2) || !res.Claimed.HasEdge(2, 3) {
		t.Error("honest unilateral claims missing from Claimed")
	}
}

// forger claims a fabricated edge between two honest nodes (1-3) plus a
// real view, and relays honestly.
func fakeEdgeForger(g *graph.Graph, gamma view.Function, z adversary.Structure, id int, fakeU, fakeV int) network.Process {
	fakeView := gamma.Of(id).Clone()
	fakeView.AddEdge(fakeU, fakeV)
	info := core.NodeInfo{Node: id, View: fakeView, Z: gamma.LocalStructure(z, id)}
	return core.NewRelayAt(id, g.Neighbors(id), info)
}

func TestForgedEdgeBetweenHonestNodesRejected(t *testing.T) {
	// 0-1-2-3-0 square; corrupted node 1 claims a fake chord 0-2... a fake
	// edge between honest 3 and honest... pick fake edge 2-0? 0 is the
	// observer (trusts only its own channels) — use fake edge 2-3' where
	// both endpoints are honest non-observers: fake 3-2? 2-3 is real.
	// Take the path graph and forge a shortcut between its honest ends.
	g := mustGraph(t, "0-1 1-2 2-3 3-4")
	z := adversary.FromSlices([]int{1})
	gamma := view.AdHoc(g)
	corrupt := map[int]network.Process{1: fakeEdgeForger(g, gamma, z, 1, 2, 4)}
	res, err := Run(g, z, gamma, 0, corrupt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confirmed.HasEdge(2, 4) {
		t.Fatal("fabricated edge between honest nodes was confirmed")
	}
	// The forger's fabrication shows up in Claimed only via its own claim.
	if !res.Confirmed.HasEdge(2, 3) || !res.Confirmed.HasEdge(3, 4) {
		t.Fatal("real edges lost")
	}
}

func TestForgedEdgeAdjacentToForgerSurvivesOnlyWithCounterpart(t *testing.T) {
	// The forger claims a fake edge 1-3 (it is an endpoint). Honest 3 does
	// not claim it, so bilateral confirmation still rejects it.
	g := mustGraph(t, "0-1 1-2 2-3")
	z := adversary.FromSlices([]int{1})
	gamma := view.AdHoc(g)
	corrupt := map[int]network.Process{1: fakeEdgeForger(g, gamma, z, 1, 1, 3)}
	res, err := Run(g, z, gamma, 0, corrupt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confirmed.HasEdge(1, 3) {
		t.Fatal("unilateral fake edge confirmed")
	}
}

// splitClaimer sends two different self-claims to different neighbors.
func splitClaimer(g *graph.Graph, gamma view.Function, z adversary.Structure, id int) network.Process {
	honest := core.NodeInfo{Node: id, View: gamma.Of(id), Z: gamma.LocalStructure(z, id)}
	fakeView := gamma.Of(id).Clone()
	fakeView.AddEdge(id, id+100)
	lying := core.NodeInfo{Node: id, View: fakeView, Z: gamma.LocalStructure(z, id)}
	per := map[int][]network.Payload{}
	i := 0
	g.Neighbors(id).ForEach(func(u int) bool {
		ni := honest
		if i%2 == 1 {
			ni = lying
		}
		per[u] = []network.Payload{core.InfoMsg{Info: ni, P: graph.Path{id}}}
		i++
		return true
	})
	return &core.Forger{ID: id, Neighbors: g.Neighbors(id), InitPer: per}
}

func TestConflictingClaimsAreContested(t *testing.T) {
	// Node 2 gives different stories to its two neighbors on a cycle; both
	// reach the observer, so node 2 is flagged contested and excluded from
	// confirmation.
	g := gen.Ring(4)
	z := adversary.FromSlices([]int{2})
	gamma := view.AdHoc(g)
	res, err := Run(g, z, gamma, 0, map[int]network.Process{2: splitClaimer(g, gamma, z, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contested.Contains(2) {
		t.Fatal("split-brain claimer not contested")
	}
	if res.Confirmed.HasEdge(1, 2) || res.Confirmed.HasEdge(2, 3) {
		t.Fatal("contested node's edges confirmed")
	}
}

func TestJointContainsTruth(t *testing.T) {
	// Corollary 2 carried to discovery: the reconstructed joint structure
	// contains the real structure restricted to the joint domain.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(4)
		g := gen.RandomGNP(r, n, 0.5)
		if !g.ComponentOf(0).Equal(g.Nodes()) {
			continue // keep it connected for simplicity
		}
		z := adversary.Random(r, g.Nodes().Remove(0), 2, 0.35)
		res, err := Run(g, z, view.AdHoc(g), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !z.Restrict(res.Joint.Domain).SubfamilyOf(res.Joint.Structure) {
			t.Fatalf("trial %d: joint misses real structure\nZ=%v joint=%v", trial, z, res.Joint)
		}
	}
}

func TestDiscoveryCompletenessRandom(t *testing.T) {
	// Guarantee 1: honest nodes reachable via honest paths are discovered
	// with their true neighborhoods confirmed when both endpoints are
	// honest and reachable.
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(3)
		g := gen.RandomGNP(r, n, 0.5)
		corrupted := nodeset.Of(1 + r.Intn(n-1))
		z := adversary.FromSets(corrupted)
		res, err := Run(g, z, view.AdHoc(g), 0, protocol.Silence(corrupted), nil)
		if err != nil {
			t.Fatal(err)
		}
		reachable := g.RemoveNodes(corrupted).ComponentOf(0)
		for _, e := range g.Edges() {
			u, v := e[0], e[1]
			if reachable.Contains(u) && reachable.Contains(v) &&
				!corrupted.Contains(u) && !corrupted.Contains(v) {
				if !res.Confirmed.HasEdge(u, v) {
					t.Fatalf("trial %d: honest-reachable edge %d-%d unconfirmed\nG=%v T=%v",
						trial, u, v, g, corrupted)
				}
			}
		}
	}
}

func TestGoroutineEngineDiscovery(t *testing.T) {
	g := gen.Ring(5)
	a, err := Run(g, adversary.Trivial(), view.AdHoc(g), 0, nil, network.Lockstep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, adversary.Trivial(), view.AdHoc(g), 0, nil, network.Goroutine)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Confirmed.Equal(b.Confirmed) || !a.Known.Equal(b.Known) {
		t.Fatal("engines disagree on discovery")
	}
}

func TestObserverOwnEdgesTrusted(t *testing.T) {
	// The observer's own channels are confirmed even when the other
	// endpoint is silent.
	g := mustGraph(t, "0-1 1-2")
	res, err := Run(g, adversary.FromSlices([]int{1}), view.AdHoc(g), 0,
		protocol.Silence(nodeset.Of(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Confirmed.HasEdge(0, 1) {
		t.Fatal("observer's own channel unconfirmed")
	}
	if res.Known.Contains(2) {
		t.Fatal("learned about node 2 through a silent cut")
	}
}

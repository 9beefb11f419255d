package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// coverFresh is the adversary cover (Definition 6) as the receiver checked
// it before the cut kernel: over every receiver side B of G_M, the ⊕ fold
// of the claimed structures and the union of the claimed views, exactly
// as the definition is written. It is the reference coverFor is compared
// against, so it walks every connected set from the receiver with the
// dealer banned and drops those whose boundary holds the dealer itself,
// sharing no prune with the kernel's walk.
func coverFresh(gm *graph.Graph, dealer, receiver int, members []int, combo []claimVer) bool {
	lk := adversary.LocalKnowledge{}
	views := map[int]nodeset.Set{}
	for i, id := range members {
		lk[id] = combo[i].info.Z
		views[id] = combo[i].info.View.Nodes()
	}
	covered := false
	wk := gm.NewWalk()
	wk.Sides(receiver, nodeset.Of(dealer), -1, func(row, cutRow []uint64) bool {
		b, cut := nodeset.FromWords(row), nodeset.FromWords(cutRow)
		if cut.Contains(dealer) {
			return true
		}
		var vgb nodeset.Set
		b.ForEach(func(v int) bool {
			vgb.MutateUnion(views[v])
			return true
		})
		if lk.JointOf(b).Contains(cut.Intersect(vgb)) {
			covered = true
			return false
		}
		return true
	})
	return covered
}

// randomClaim draws a well-formed claim for v in the shapes the registered
// strategies send: v's true view, or that view plus an edge to the dealer,
// the receiver, a ghost node or any other node; and, on the claimed view's
// nodes, the true restriction of 𝒵, a trivial (understated) structure,
// every node but D and R (overstated), or a random antichain. It returns
// the ghost's own claim too when the view names the ghost.
func randomClaim(r *rand.Rand, in *instance.Instance, v, ghost int) (NodeInfo, *NodeInfo) {
	view := in.Gamma.Of(v)
	ids := in.G.SortedIDs()
	var ghostInfo *NodeInfo
	if shape := r.Intn(5); shape > 0 {
		other := [...]int{in.Dealer, in.Receiver, ghost, ids[r.Intn(len(ids))]}[shape-1]
		if other != v {
			view = view.Clone()
			view.AddEdge(v, other)
		}
		if other == ghost {
			gv := graph.New()
			gv.AddEdge(in.Dealer, ghost)
			gv.AddEdge(ghost, v)
			ghostInfo = &NodeInfo{Node: ghost, View: gv, Z: adversary.Trivial().RestrictTo(gv.Nodes())}
		}
	}
	dom := view.Nodes()
	var z adversary.Structure
	switch r.Intn(4) {
	case 0:
		z = in.Z.Restrict(dom)
	case 1:
		z = adversary.Trivial()
	case 2:
		z = adversary.FromSets(dom.Remove(in.Dealer).Remove(in.Receiver))
	default:
		z = adversary.Random(r, dom, 1+r.Intn(3), 0.2+r.Float64()*0.5)
	}
	return NodeInfo{Node: v, View: view, Z: adversary.Restricted{Domain: dom, Structure: z}}, ghostInfo
}

// TestCoverMatchesFoldReference: on 1,200 seeded candidates — random
// instances, every relay claiming one or two versions (contested nodes
// pick one per candidate), views that add edges and ghost nodes,
// understated, overstated and random structures — coverFor's verdict on
// G_M equals the ⊕-fold reference's.
func TestCoverMatchesFoldReference(t *testing.T) {
	trials := 1200
	if testing.Short() {
		trials = 300
	}
	r := rand.New(rand.NewSource(6))
	var covered int
	for trial := 0; trial < trials; trial++ {
		n := 4 + r.Intn(6)
		g := gen.RandomGNP(r, n, 0.3+r.Float64()*0.4)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(3), 0.2+r.Float64()*0.4)
		level := gen.Levels()[trial%len(gen.Levels())]
		in, err := gen.Build(g, z, level, 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		rcv := newReceiver(in, sharedOf(in), 0, nil)
		ghost, ghosted := n, false
		var members []int
		var combo []claimVer
		for _, v := range g.SortedIDs() {
			info := TrueInfo(in, v)
			if v != in.Receiver && r.Intn(3) > 0 {
				// A forged version; when contested, the candidate picks one.
				forged, ghostInfo := randomClaim(r, in, v, ghost)
				if r.Intn(2) == 0 {
					info = forged
				}
				if ghostInfo != nil && !ghosted {
					ghosted = true
					members = append(members, ghost)
					combo = append(combo, claimVer{info: *ghostInfo})
				}
			}
			members = append(members, v)
			combo = append(combo, claimVer{info: info})
		}
		gm := rcv.graphOfCombo(members, combo)
		got, _ := rcv.coverFor(gm, members, combo)
		if want := coverFresh(gm, in.Dealer, in.Receiver, members, combo); got != want {
			t.Fatalf("trial %d on %v, G_M %v: coverFor %v, reference %v", trial, in, gm, got, want)
		}
		if got {
			covered++
		}
	}
	if covered < trials/10 || covered > trials-trials/10 {
		t.Errorf("%d of %d candidates are covered; the draw is too lopsided", covered, trials)
	}
}

// TestMalformedClaimsAreErroneous: a claim whose structure's domain is not
// its view's node set, or whose maximal sets leave that domain, breaks the
// ⊕ membership identity the cover check relies on, so the receiver drops
// it like any erroneous message. A run that also carries such claims then
// decides exactly as the run without them, in the same round. On the
// chorded line D=0–1–2–R=3 with 1–3 and 𝒵 = {{1}}, the path forger at 1
// also forges a claim about the honest node 2 whose structure lives on all
// of V(G); folded by ⊕ it would collapse Z_{2,3} to {∅}.
func TestMalformedClaimsAreErroneous(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *instance.Instance
	}{
		{"chorded line", adhocInstance(t, "0-1 1-2 2-3 1-3", adversary.FromSlices([]int{1}), 0, 3)},
		{"triple path", triplePath(t)},
		{"weak diamond", weakDiamond(t)},
	} {
		in, c, x := tc.in, 1, 2
		fake := in.Gamma.Of(c).Clone()
		fake.AddEdge(c, in.Dealer)
		ghost := in.G.MaxID() + 1
		ghostView := graph.New()
		ghostView.AddEdge(in.Dealer, ghost)
		ghostView.AddEdge(ghost, c)
		malformed := []network.Payload{
			// The structure's domain is wider than the claimed view.
			InfoMsg{Info: NodeInfo{Node: c, View: fake, Z: adversary.Restricted{Domain: in.G.Nodes(), Structure: adversary.Trivial()}}, P: graph.Path{c}},
			InfoMsg{Info: NodeInfo{Node: x, View: in.Gamma.Of(x), Z: adversary.Restricted{Domain: in.G.Nodes(), Structure: adversary.Trivial()}}, P: graph.Path{x, c}},
			// The domain is narrower than the claimed view.
			InfoMsg{Info: NodeInfo{Node: ghost, View: ghostView, Z: adversary.Restricted{Domain: nodeset.Of(ghost), Structure: adversary.Trivial()}}, P: graph.Path{ghost, c}},
			// A maximal set leaves the domain.
			InfoMsg{Info: NodeInfo{Node: c, View: fake, Z: adversary.Restricted{Domain: fake.Nodes(), Structure: adversary.FromSets(in.G.Nodes().Remove(in.Dealer).Remove(in.Receiver))}}, P: graph.Path{c}},
		}
		for _, runner := range []struct {
			name  string
			proto protocol.Protocol
		}{{"memoized", Proto{}}, {"record-free", recordFree{}}} {
			run := func(extra []network.Payload) *network.Result {
				forger := NewPathForger(in, c, "forged")
				forger.InitAll = append(forger.InitAll, extra...)
				res, err := protocol.Run(runner.proto, in, "1", protocol.Options{Corrupt: map[int]network.Process{c: forger}})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			label := fmt.Sprintf("%s (%s)", tc.name, runner.name)
			want, with := run(nil), run(malformed)
			wx, wok := want.DecisionOf(in.Receiver)
			gx, gok := with.DecisionOf(in.Receiver)
			if wx != gx || wok != gok || want.DecidedAtRound[in.Receiver] != with.DecidedAtRound[in.Receiver] {
				t.Fatalf("%s: with malformed claims the receiver decided (%q, %v) at round %d, without (%q, %v) at round %d",
					label, gx, gok, with.DecidedAtRound[in.Receiver], wx, wok, want.DecidedAtRound[in.Receiver])
			}
		}
	}
}

// refGraphOfCombo is G_M as the receiver built it before one pass: the
// claimed views folded by Union in ascending node order, then induced on
// the claimed node set.
func refGraphOfCombo(members []int, combo []claimVer) *graph.Graph {
	var vm nodeset.Set
	views := map[int]*graph.Graph{}
	for i, id := range members {
		vm.MutateAdd(id)
		views[id] = combo[i].info.View
	}
	joint := graph.New()
	vm.ForEach(func(id int) bool {
		joint = joint.Union(views[id])
		return true
	})
	return joint.InducedSubgraph(vm)
}

// TestGraphOfComboMatchesFoldAndInduce: on 1,000 seeded candidates — random
// instances, forged views with extra edges and ghost nodes, and members in
// candidate order (dealer and receiver first) — graphOfCombo's one-pass G_M
// equals the fold-and-induce G_M: nodes, edges and rendering.
func TestGraphOfComboMatchesFoldAndInduce(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 1000; trial++ {
		n := 4 + r.Intn(6)
		g := gen.RandomGNP(r, n, 0.3+r.Float64()*0.4)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(3), 0.3)
		in, err := gen.Build(g, z, gen.Levels()[trial%len(gen.Levels())], 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		rcv := newReceiver(in, sharedOf(in), 0, nil)
		members := []int{in.Dealer, in.Receiver}
		combo := []claimVer{{info: TrueInfo(in, in.Dealer)}, {info: TrueInfo(in, in.Receiver)}}
		ghosted := false
		for _, v := range r.Perm(n) {
			if v == in.Dealer || v == in.Receiver || r.Intn(4) == 0 {
				continue
			}
			info := TrueInfo(in, v)
			if r.Intn(2) == 0 {
				forged, ghostInfo := randomClaim(r, in, v, n)
				info = forged
				if ghostInfo != nil && !ghosted {
					ghosted = true
					members = append(members, n)
					combo = append(combo, claimVer{info: *ghostInfo})
				}
			}
			members = append(members, v)
			combo = append(combo, claimVer{info: info})
		}
		got, want := rcv.graphOfCombo(members, combo), refGraphOfCombo(members, combo)
		if !got.Equal(want) || got.String() != want.String() || got.MaxID() != want.MaxID() {
			t.Fatalf("trial %d on %v: G_M %v, reference %v", trial, in, got, want)
		}
	}
}

package rmt

import (
	"fmt"
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// spreadSet maps every member v of s to stride·v.
func spreadSet(s nodeset.Set, stride int) nodeset.Set {
	var out nodeset.Set
	s.ForEach(func(v int) bool {
		out.MutateAdd(stride * v)
		return true
	})
	return out
}

// spreadGraph maps every node v of g to stride·v.
func spreadGraph(g *graph.Graph, stride int) *graph.Graph {
	out := graph.New()
	g.Nodes().ForEach(func(v int) bool {
		out.AddNode(stride * v)
		return true
	})
	for _, e := range g.Edges() {
		out.AddEdge(stride*e[0], stride*e[1])
	}
	return out
}

// spreadInstance rebuilds in at the same knowledge level with every ID v
// mapped to stride·v.
func spreadInstance(t *testing.T, in *Instance, level gen.Knowledge, stride int) *Instance {
	t.Helper()
	sets := make([]nodeset.Set, 0, in.Z.NumMaximal())
	for _, m := range in.Z.Maximal() {
		sets = append(sets, spreadSet(m, stride))
	}
	out, err := gen.Build(spreadGraph(in.G, stride), adversary.FromSets(sets...), level, stride*in.Dealer, stride*in.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInstancesUnderEveryIDSet: seeded random instances, relay chains and
// complete graphs, relabelled onto IDs spread by 3 and by 7 at every
// knowledge level, match the instance on IDs 0..n-1 once mapped back:
// every view γ(v) and local structure Z_v, both cut verdicts with their
// witnesses, and one honest run of every registered protocol — the same
// capability verdict, decisions, rounds and message counts.
func TestInstancesUnderEveryIDSet(t *testing.T) {
	type tuple struct {
		name string
		g    *graph.Graph
		z    adversary.Structure
		d, r int
	}
	var tuples []tuple
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 8; i++ {
		n := 5 + r.Intn(5)
		g := gen.RandomGNP(r, n, 0.3+0.4*r.Float64())
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(3), 0.3)
		tuples = append(tuples, tuple{fmt.Sprintf("gnp %d", i), g, z, 0, n - 1})
	}
	for _, hops := range []int{1, 2} {
		chain, err := benchdef.ChainInstance(3, hops, gen.AdHoc)
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tuple{fmt.Sprintf("chain 3x%d", hops), chain.G, chain.Z, chain.Dealer, chain.Receiver})
	}
	k6, err := benchdef.CompleteInstance(6, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	tuples = append(tuples, tuple{"complete 6", k6.G, k6.Z, k6.Dealer, k6.Receiver})
	ran := map[string]int{}
	for _, tp := range tuples {
		for _, level := range gen.Levels() {
			dense, err := gen.Build(tp.g, tp.z, level, tp.d, tp.r)
			if err != nil {
				t.Fatal(err)
			}
			rmtCut, rmtFound := FindRMTCut(dense)
			zppCut, zppFound := FindZppCut(dense)
			for _, stride := range []int{3, 7} {
				label := fmt.Sprintf("%s at %s, stride %d", tp.name, level, stride)
				spread := spreadInstance(t, dense, level, stride)
				dense.G.Nodes().ForEach(func(v int) bool {
					if got, want := spread.Gamma.Of(stride*v), spreadGraph(dense.Gamma.Of(v), stride); !got.Equal(want) {
						t.Fatalf("%s: γ(%d) = %v, want %v", label, stride*v, got, want)
					}
					got, want := spread.LocalStructure(stride*v), dense.LocalStructure(v)
					sets := make([]nodeset.Set, 0, want.Structure.NumMaximal())
					for _, m := range want.Structure.Maximal() {
						sets = append(sets, spreadSet(m, stride))
					}
					if !got.Domain.Equal(spreadSet(want.Domain, stride)) || !got.Structure.Equal(adversary.FromSets(sets...)) {
						t.Fatalf("%s: Z_%d = %v, want %v spread", label, stride*v, got, want)
					}
					return true
				})
				cut, found := FindRMTCut(spread)
				if found != rmtFound || found && (!cut.C1.Equal(spreadSet(rmtCut.C1, stride)) ||
					!cut.C2.Equal(spreadSet(rmtCut.C2, stride)) || !cut.B.Equal(spreadSet(rmtCut.B, stride))) {
					t.Fatalf("%s: RMT-cut %v (%t), want %v (%t) spread", label, cut, found, rmtCut, rmtFound)
				}
				zcut, zfound := FindZppCut(spread)
				if zfound != zppFound || zfound && (!zcut.C1.Equal(spreadSet(zppCut.C1, stride)) ||
					!zcut.C2.Equal(spreadSet(zppCut.C2, stride)) || !zcut.B.Equal(spreadSet(zppCut.B, stride))) {
					t.Fatalf("%s: 𝒵-pp cut %v (%t), want %v (%t) spread", label, zcut, zfound, zppCut, zppFound)
				}
				for _, name := range Protocols() {
					want, werr := RunProtocol(name, dense, "x", nil, RunOptions{})
					got, gerr := RunProtocol(name, spread, "x", nil, RunOptions{})
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s: %s errors %v on dense IDs, %v spread", label, name, werr, gerr)
					}
					if werr != nil {
						continue
					}
					ran[name]++
					if got.Rounds != want.Rounds || got.Metrics.MessagesSent != want.Metrics.MessagesSent || len(got.Decisions) != len(want.Decisions) {
						t.Fatalf("%s: %s ran %d rounds, %d messages, %d decisions; dense %d, %d, %d", label, name,
							got.Rounds, got.Metrics.MessagesSent, len(got.Decisions), want.Rounds, want.Metrics.MessagesSent, len(want.Decisions))
					}
					for v, val := range want.Decisions {
						if got.Decisions[stride*v] != val {
							t.Fatalf("%s: %s: node %d decided %q, dense node %d %q", label, name, stride*v, got.Decisions[stride*v], v, val)
						}
					}
				}
			}
		}
	}
	for _, name := range Protocols() {
		if ran[name] == 0 {
			t.Errorf("%s never ran", name)
		}
	}
	t.Logf("runs compared per protocol: %v", ran)
}

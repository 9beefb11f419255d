// Package selfred implements Section 5 of the paper: the self-reducibility
// of RMT through the 𝒵-CPA protocol scheme, establishing poly-time
// uniqueness (Theorem 9, Corollary 10).
//
// # Basic instances (Figure 1)
//
// The family 𝒢′ contains star-like instances: a dealer D, a receiver R, and
// a middle set A(G) where every middle node is adjacent to exactly D and R.
// RMT on such an instance is solvable iff A(G) is not the union of two
// admissible corruption sets (no "pair partition") — the degenerate form of
// the RMT 𝒵-pp cut.
//
// # The protocol Π
//
// Pi is a fully polynomial protocol for RMT restricted to solvable basic
// instances: after the middles relay, the receiver decides x iff x is the
// unique value whose non-reporters A \ A_x form an admissible corruption
// set. On the promise family the certifying value is unique and equals
// x_D; off the promise Π abstains rather than guess, which is what makes
// the composed protocol below safe in every run.
//
// # The Decision Protocol (Theorem 9)
//
// A 𝒵-CPA player v partitions its reporters by value into classes
// A_1, ..., A_m and must answer the membership check A_l ∉ Z_v. Following
// the proof of Theorem 9, v simulates, for each l, the pair of runs
//
//	e_0^l: dealer value 0, corruption A \ A_l (which replays its honest
//	       behavior from e_1^l, i.e. reports 1);
//	e_1^l: dealer value 1, corruption A_l (which replays its honest
//	       behavior from e_0^l, i.e. reports 0).
//
// The two runs generate byte-identical views at v (Figure 2's
// indistinguishability — RunPair exposes both runs so tests can assert it),
// and v decides a_l iff Π decides 0 in e_0^l. With the abstaining Π this
// fires exactly when A \ A_l ∈ Z_v and A_l ∉ Z_v — equation (1) of the
// proof — which at any genuine decision moment of a real run coincides
// with the direct membership check, because the non-x_D reporters are all
// corrupted. Experiment E7 verifies the two deciders produce identical
// decisions and round counts across random instances and adversaries.
package selfred

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// Basic is a basic instance of family 𝒢′ (Figure 1): the middle set and the
// adversary structure restricted to it. Dealer and receiver are implicit.
type Basic struct {
	Middle nodeset.Set
	Z      adversary.Structure
}

// NewBasic restricts the structure to the middle set and builds the
// instance.
func NewBasic(middle nodeset.Set, z adversary.Structure) Basic {
	return Basic{Middle: middle, Z: z.Restrict(middle)}
}

// Solvable reports whether RMT is solvable on the basic instance: no pair
// partition A = Z1 ∪ Z2 with Z1, Z2 ∈ 𝒵 (the RMT 𝒵-pp cut condition
// degenerates to this on stars) — i.e. the structure satisfies Q2 on the
// middle set.
func (b Basic) Solvable() bool { return b.Z.Q2(b.Middle) }

// Graph materializes the star topology of the basic instance with the given
// dealer and receiver IDs (which must not collide with middle IDs).
func (b Basic) Graph(dealer, receiver int) *graph.Graph {
	g := graph.New()
	b.Middle.ForEach(func(a int) bool {
		g.AddEdge(dealer, a)
		g.AddEdge(a, receiver)
		return true
	})
	return g
}

// Instance materializes the full ad hoc RMT instance for the basic
// instance.
func (b Basic) Instance(dealer, receiver int) (*instance.Instance, error) {
	g := b.Graph(dealer, receiver)
	return instance.New(g, b.Z, view.AdHoc(g), dealer, receiver)
}

// Pi is the receiver's decision function of protocol Π on a basic instance:
// given the reports (value → reporting middles), it decides the unique
// value whose non-reporters form an admissible corruption set, abstaining
// if no value or more than one value certifies. It is fully polynomial in
// the size of the reports and of the structure's antichain.
func Pi(b Basic, reports map[network.Value]nodeset.Set) (network.Value, bool) {
	var certified []network.Value
	for x, ax := range reports {
		if b.Z.Contains(b.Middle.Minus(ax)) {
			certified = append(certified, x)
		}
	}
	if len(certified) != 1 {
		return "", false
	}
	return certified[0], true
}

// PairRun is one of the two simulated runs of Theorem 9's Decision
// Protocol.
type PairRun struct {
	DealerValue network.Value // the value x_D of this run
	Corrupted   nodeset.Set   // the corruption set of this run
	Decision    network.Value // Π's decision at v in this run ("" = none)
	Decided     bool
}

// RunPair simulates the paired runs e_0^l and e_1^l for the class al ⊆ A of
// a basic instance, returning both runs and the canonical key of the common
// view at the receiver. In e_0^l the dealer value is "0", the honest
// middles are al and report "0", and the corrupted middles A \ al replay
// their honest behavior from e_1^l, reporting "1" — and symmetrically for
// e_1^l. The views coincide by construction; the returned key lets tests
// assert the byte-level indistinguishability that drives the proof.
func RunPair(b Basic, al nodeset.Set) (e0, e1 PairRun, viewKey string) {
	rest := b.Middle.Minus(al)
	// The common wire view at v: al report "0", A \ al report "1".
	reports := map[network.Value]nodeset.Set{"0": al, "1": rest}
	viewKey = canonicalReports(reports)

	d0, ok0 := Pi(b, reports)
	e0 = PairRun{DealerValue: "0", Corrupted: rest, Decision: d0, Decided: ok0}
	d1, ok1 := Pi(b, reports)
	e1 = PairRun{DealerValue: "1", Corrupted: al, Decision: d1, Decided: ok1}
	return e0, e1, viewKey
}

func canonicalReports(reports map[network.Value]nodeset.Set) string {
	vals := make([]network.Value, 0, len(reports))
	for x := range reports {
		vals = append(vals, x)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := ""
	for _, x := range vals {
		s += fmt.Sprintf("%s<-%s;", x, reports[x])
	}
	return s
}

// PiDecider is the 𝒵-CPA decision subroutine built from Π simulations — the
// protocol member 𝒜_Π of the 𝒵-CPA scheme in Definition 8. It answers the
// membership check by the Decision Protocol instead of consulting Z_v's
// antichain directly. Stats counts the simulated runs for experiment E7.
type PiDecider struct {
	LK adversary.LocalKnowledge
	// SimulatedRuns counts every e_0^l/e_1^l pair simulated, across all
	// players sharing this decider. It is atomic because players decide
	// concurrently under the goroutine engine.
	SimulatedRuns atomic.Int64
}

// Decide implements zcpa.Decider: player v simulates, in parallel, the 2m
// runs (e_0^l, e_1^l) for its m reporter classes and decides a_l iff e_0^l
// terminates with decision 0.
func (d *PiDecider) Decide(v int, classes *protocol.Tally) (network.Value, bool) {
	zv, ok := d.LK[v]
	if !ok {
		return "", false
	}
	var a nodeset.Set
	for i := 0; i < classes.Len(); i++ {
		a.MutateUnion(classes.Senders(i))
	}
	b := NewBasic(a, zv.Structure)
	for i := 0; i < classes.Len(); i++ {
		e0, _, _ := RunPair(b, classes.Senders(i))
		d.SimulatedRuns.Add(2)
		if e0.Decided && e0.Decision == "0" {
			return classes.Value(i), true
		}
	}
	return "", false
}

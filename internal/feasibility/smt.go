package feasibility

import (
	"context"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/smt"
)

// SMTFeasible is Dowden's characterization of perfectly secure message
// transmission under the fully generalised adversary (𝒵, ℒ): SMT is solvable
// iff the disruption condition holds — the corruption ground ∪𝒵 does not
// separate D from R — and the secrecy condition holds — for every admissible
// listening set L ∈ ℒ, ∪𝒵 ∪ L does not separate D from R either. The L = ∅
// member every structure contains makes disruption the degenerate case of
// secrecy, so the predicate is a single quantified cut condition.
func SMTFeasible(in *instance.Instance, listen adversary.Structure) bool {
	return adversary.NewGeneralised(in.Z, listen).Feasible(in.G, in.Dealer, in.Receiver)
}

// SMTVerdict is the instance-level evaluation of the SMT cut conditions,
// with witnesses for whichever side holds: the share-routing path family
// when feasible, the violated cut when not.
type SMTVerdict struct {
	// Feasible is SMTFeasible(in, listen).
	Feasible bool
	// Paths is the canonical witness family smt would route shares over —
	// present exactly when Feasible.
	Paths []graph.Path
	// DisruptionCut is the corruption ground when it alone separates D from
	// R (or contains one of them); DisruptionFound guards it.
	DisruptionCut   nodeset.Set
	DisruptionFound bool
	// SecrecyCut and SecrecyListen witness a failed secrecy condition: the
	// first maximal listening set whose union with the ground separates D
	// from R, and that union. SecrecyFound guards both. A pure disruption
	// failure reports both cuts (∅ is an admissible listening set).
	SecrecyCut    nodeset.Set
	SecrecyListen nodeset.Set
	SecrecyFound  bool
}

// SMTVerdictFor evaluates the Dowden cut conditions on an instance under the
// given listening structure. The feasible-side witness family is computed by
// the protocol's own planner, so the verdict and an smt run can never
// disagree about solvability.
func SMTVerdictFor(in *instance.Instance, listen adversary.Structure) SMTVerdict {
	v, _ := SMTVerdictCtx(context.Background(), in, listen)
	return v
}

// SMTVerdictCtx is SMTVerdictFor under ctx. The secrecy scan and the
// planner run one search per maximal listening set; ctx is polled before
// the disruption check and before each of those searches, and its error is
// returned as soon as it is seen.
func SMTVerdictCtx(ctx context.Context, in *instance.Instance, listen adversary.Structure) (SMTVerdict, error) {
	if err := ctx.Err(); err != nil {
		return SMTVerdict{}, err
	}
	v := SMTVerdict{}
	a := adversary.NewGeneralised(in.Z, listen)
	v.DisruptionCut, v.DisruptionFound = a.DisruptionCut(in.G, in.Dealer, in.Receiver)
	var err error
	if v.SecrecyCut, v.SecrecyListen, v.SecrecyFound, err = a.SecrecyCutCtx(ctx, in.G, in.Dealer, in.Receiver); err != nil {
		return SMTVerdict{}, err
	}
	if v.DisruptionFound || v.SecrecyFound {
		return v, nil
	}
	plan, err := smt.NewPlanCtx(ctx, in, listen)
	if protocol.IsCapsError(err) {
		// The cut conditions passed, so the planner must succeed; reaching
		// here would mean predicate and protocol have drifted apart.
		panic("feasibility: cut conditions hold but smt.NewPlan failed: " + err.Error())
	}
	if err != nil {
		return SMTVerdict{}, err
	}
	v.Feasible = true
	v.Paths = plan.Paths
	return v, nil
}

// SMTBoundaryPoint is one side of an SMT boundary pair: an instance builder
// and the listening structure to evaluate it under.
type SMTBoundaryPoint struct {
	// Listen is the listening structure ℒ of this side.
	Listen adversary.Structure
	// Build constructs the instance.
	Build func() (*instance.Instance, error)
}

// SMTBoundary is one point of the SMT feasibility boundary: two
// (instance, ℒ) pairs exactly one adversary set apart that straddle the cut
// conditions. SMTFeasible accepts the Feasible side and rejects the
// Infeasible side, and smt.NewPlan agrees with it on both (asserted by this
// package's tests).
type SMTBoundary struct {
	// Name is the pair's registry key.
	Name string
	// Doc says which cut flips and why the single extra set flips it.
	Doc string
	// Feasible and Infeasible are the two sides of the pair.
	Feasible, Infeasible SMTBoundaryPoint
}

// SMT boundary pair names.
const (
	SMTExtraEar    = "smt-extra-ear"
	SMTFirstEar    = "smt-first-ear"
	SMTWiderGround = "smt-wider-ground"
)

// SMTBoundaries returns the SMT boundary battery. Every pair is one set
// wide: the infeasible side differs from the feasible side by a single
// maximal set added to the listening structure (or, for the disruption pair,
// to the corruption structure).
func SMTBoundaries() []SMTBoundary {
	triple := func(z adversary.Structure) func() (*instance.Instance, error) {
		return func() (*instance.Instance, error) {
			g, d, r := gen.DisjointPaths(3, 1)
			return instance.AdHoc(g, z, d, r)
		}
	}
	line := func() (*instance.Instance, error) {
		return instance.AdHoc(gen.Line(5), adversary.Trivial(), 0, 4)
	}
	return []SMTBoundary{
		{
			Name: SMTExtraEar,
			Doc: "triple path, relay 1 corruptible: ears on {2} and {3} each miss " +
				"the other honest relay's path, but the one wider ear {2, 3} hears " +
				"every path escaping the ground — the secrecy cut flips.",
			Feasible: SMTBoundaryPoint{
				Listen: adversary.FromSlices([]int{2}, []int{3}),
				Build:  triple(gen.Singletons(nodeset.Of(1))),
			},
			Infeasible: SMTBoundaryPoint{
				Listen: adversary.FromSlices([]int{2}, []int{3}, []int{2, 3}),
				Build:  triple(gen.Singletons(nodeset.Of(1))),
			},
		},
		{
			Name: SMTFirstEar,
			Doc: "a bare line has exactly one D–R path; the first non-empty " +
				"listening set on its interior hears every share family there is.",
			Feasible: SMTBoundaryPoint{
				Listen: adversary.Trivial(),
				Build:  line,
			},
			Infeasible: SMTBoundaryPoint{
				Listen: adversary.FromSlices([]int{2}),
				Build:  line,
			},
		},
		{
			Name: SMTWiderGround,
			Doc: "the disruption side of the boundary: with relays 1 and 2 " +
				"corruptible the family routes over relay 3; adding {3} to the " +
				"corruption structure closes the last honest path.",
			Feasible: SMTBoundaryPoint{
				Listen: adversary.Trivial(),
				Build:  triple(gen.Singletons(nodeset.Of(1, 2))),
			},
			Infeasible: SMTBoundaryPoint{
				Listen: adversary.Trivial(),
				Build:  triple(gen.Singletons(nodeset.Of(1, 2, 3))),
			},
		},
	}
}

// SMTBoundaryByName returns the named boundary pair.
func SMTBoundaryByName(name string) (SMTBoundary, bool) {
	for _, b := range SMTBoundaries() {
		if b.Name == name {
			return b, true
		}
	}
	return SMTBoundary{}, false
}

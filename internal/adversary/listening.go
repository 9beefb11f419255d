package adversary

import (
	"context"

	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// This file adds the second monotone family of Dowden's fully generalised
// adversary ("Secure Message Transmission in the Presence of a Fully
// Generalised Adversary", see PAPERS.md): alongside the corruption
// (disruption) structure 𝒵, a *listening* structure ℒ whose members are the
// node sets the adversary may eavesdrop on without otherwise interfering.
// Both families are ordinary Structures — monotone, antichain-stored,
// always containing ∅ — so ℒ = Trivial() means "no listening".
//
// Feasibility of secure (private + reliable) transmission splits into two
// cut conditions over the communication graph, checked separately so each
// failure carries its own witness:
//
//   - disruption tolerance: the corruptible ground ∪𝒵 must not separate D
//     from R — otherwise every D–R path can be disrupted and no share
//     routing survives;
//   - secrecy: for every admissible listening set L ∈ ℒ, the combined set
//     ∪𝒵 ∪ L must not separate D from R — otherwise the adversary can
//     listen on every surviving path at once and no share escapes it.
//
// The disruption condition is the L = ∅ instance of the secrecy condition,
// so with ℒ = {∅} the pair degenerates to plain reliability. The conditions
// quantify the disruption family by its ground because a one-shot protocol
// fixes its share routing before the adversary commits to a corruption set:
// any share path touching a corruptible node can be disrupted in some
// admissible execution.

// Generalised is Dowden's fully generalised adversary: a disruption family
// Z (the sets it may corrupt) paired with a listening family L (the sets it
// may eavesdrop on). Either family may be Trivial(), recovering the pure
// listening-only or corruption-only adversary.
type Generalised struct {
	Z Structure
	L Structure
}

// NewGeneralised pairs a corruption structure with a listening structure.
func NewGeneralised(z, l Structure) Generalised { return Generalised{Z: z, L: l} }

// String renders the pair, e.g. "Z=⟨{1}⟩ L=⟨{2}, {3}⟩".
func (a Generalised) String() string { return "Z=" + a.Z.String() + " L=" + a.L.String() }

// DisruptionCut checks the disruption-tolerance condition: it returns the
// corruptible ground and true when that ground separates d from r in g —
// the witness that reliable transmission over corruption-free paths is
// impossible. A trivial Z has ground ∅, which never separates two
// connected nodes.
func (a Generalised) DisruptionCut(g *graph.Graph, d, r int) (nodeset.Set, bool) {
	ground := a.Z.Ground()
	if ground.Contains(d) || ground.Contains(r) {
		// The model assumes an honest dealer and receiver; a family allowed
		// to corrupt either trivially disrupts every path.
		return ground, true
	}
	if g.HasHonestPath(d, r, ground) {
		return nodeset.Empty(), false
	}
	return ground, true
}

// SecrecyCut checks the secrecy condition: it returns the first maximal
// listening set L (in canonical antichain order) such that ∪Z ∪ L separates
// d from r, together with the combined cut, or found = false when every
// admissible listening set leaves some corruption-free path unheard. The
// trivial listening structure {∅} only reproduces the disruption condition
// — it never adds a cut of its own, so "no listening" can never make a
// feasible instance infeasible.
func (a Generalised) SecrecyCut(g *graph.Graph, d, r int) (cut, listen nodeset.Set, found bool) {
	cut, listen, found, _ = a.SecrecyCutCtx(context.Background(), g, d, r)
	return cut, listen, found
}

// SecrecyCutCtx is SecrecyCut polling ctx before each maximal listening
// set's search, so a structure with many sets stops at ctx's deadline; it
// returns ctx's error then.
func (a Generalised) SecrecyCutCtx(ctx context.Context, g *graph.Graph, d, r int) (cut, listen nodeset.Set, found bool, err error) {
	ground := a.Z.Ground()
	for _, l := range a.L.Maximal() {
		if err := ctx.Err(); err != nil {
			return nodeset.Empty(), nodeset.Empty(), false, err
		}
		combined := ground.Union(l)
		if combined.Contains(d) || combined.Contains(r) || !g.HasHonestPath(d, r, combined) {
			return combined, l, true, nil
		}
	}
	return nodeset.Empty(), nodeset.Empty(), false, nil
}

// Feasible reports whether secure message transmission from d to r is
// possible under the pair: neither the disruption cut nor any secrecy cut
// exists. Since ∅ ∈ ℒ always, the secrecy scan subsumes the disruption
// check whenever ℒ is trivial; both are run so each condition stays
// independently testable.
func (a Generalised) Feasible(g *graph.Graph, d, r int) bool {
	if _, cut := a.DisruptionCut(g, d, r); cut {
		return false
	}
	_, _, cut := a.SecrecyCut(g, d, r)
	return !cut
}

// CoversViews reports whether a single member of the family intersects
// every one of the given views — for a listening structure and the
// interiors of a share-routing path family, whether one admissible
// listening set hears every share. The witness set is returned when one
// exists. The ground cases are exact, never vacuous: an empty view
// collection has nothing to cover, and a view that is itself empty (a
// direct D–R edge has no interior) cannot be listened on, so in both cases
// no witness exists. In particular Trivial() = {∅} covers nothing: ∅
// intersects no non-empty view.
func (z Structure) CoversViews(views []nodeset.Set) (nodeset.Set, bool) {
	if len(views) == 0 {
		return nodeset.Empty(), false
	}
	for _, m := range z.antichain() {
		all := true
		for _, v := range views {
			if v.Intersect(m).IsEmpty() {
				all = false
				break
			}
		}
		if all {
			return m, true
		}
	}
	return nodeset.Empty(), false
}

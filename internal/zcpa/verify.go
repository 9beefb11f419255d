package zcpa

import (
	"fmt"

	"rmt/internal/instance"
)

// VerifyZppCut checks that a claimed RMT 𝒵-pp cut witness satisfies
// Definition 7 on the instance — the independent verification counterpart
// of FindRMTZppCut's exponential search:
//
//  1. C1 and C2 are disjoint from each other and from {D, R};
//  2. C = C1 ∪ C2 separates D from R (or they were never connected);
//  3. B is the receiver's connected component of G − C;
//  4. C1 ∈ 𝒵;
//  5. ∀u ∈ B: N(u) ∩ C2 ∈ Z_u.
func VerifyZppCut(in *instance.Instance, cut ZppCut) error {
	c := cut.Cut()
	if cut.C1.Intersects(cut.C2) {
		return fmt.Errorf("zcpa: C1 %v and C2 %v overlap", cut.C1, cut.C2)
	}
	if c.Contains(in.Dealer) || c.Contains(in.Receiver) {
		return fmt.Errorf("zcpa: cut %v contains a terminal", c)
	}
	if !c.SubsetOf(in.G.Nodes()) {
		return fmt.Errorf("zcpa: cut %v contains non-nodes", c)
	}
	if !in.G.Separates(c, in.Dealer, in.Receiver) &&
		in.G.Connected(in.Dealer, in.Receiver) {
		return fmt.Errorf("zcpa: %v does not separate %d from %d", c, in.Dealer, in.Receiver)
	}
	comp := in.G.RemoveNodes(c).ComponentOf(in.Receiver)
	if !comp.Equal(cut.B) {
		return fmt.Errorf("zcpa: B %v is not the receiver component %v", cut.B, comp)
	}
	if !in.Z.Contains(cut.C1) {
		return fmt.Errorf("zcpa: C1 %v is not admissible", cut.C1)
	}
	var bad error
	cut.B.ForEach(func(u int) bool {
		if part := in.G.Neighbors(u).Intersect(cut.C2); !in.LocalStructure(u).Contains(part) {
			bad = fmt.Errorf("zcpa: N(%d) ∩ C2 = %v is not in Z_%d", u, part, u)
		}
		return bad == nil
	})
	return bad
}

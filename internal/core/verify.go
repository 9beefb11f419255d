package core

import (
	"fmt"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
)

// VerifyRMTCut checks that a claimed RMT-cut witness actually satisfies
// Definition 3 on the instance. The existence search (FindRMTCut) is an
// exponential enumeration; this verifier is the cheap, independent check
// that its output — or a witness produced by any other tool — is genuine:
//
//  1. C1 and C2 are disjoint from each other and from {D, R};
//  2. C = C1 ∪ C2 separates D from R;
//  3. B is exactly the connected component of R in G − C;
//  4. C1 ∈ 𝒵;
//  5. C2 ∩ V(γ(B)) ∈ Z_B, checked node by node: C2 ∩ V(γ(u)) ∈ Z_u for
//     every u ∈ B, which the ⊕ membership identity (DESIGN.md §4) makes
//     equivalent without building any Z_v.
func VerifyRMTCut(in *instance.Instance, cut RMTCut) error {
	if err := cutsearch.Verify(cutsearch.FromInstance(in, cutsearch.JointView), cutsearch.Witness(cut)); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

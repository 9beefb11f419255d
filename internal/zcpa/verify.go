package zcpa

import (
	"fmt"

	"rmt/internal/cutsearch"
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
//  5. ∀u ∈ B: N(u) ∩ C2 ∈ Z_u, read from V(γ(u)) and 𝒵 without building
//     Z_u.
func VerifyZppCut(in *instance.Instance, cut ZppCut) error {
	if err := cutsearch.Verify(cutsearch.FromInstance(in, cutsearch.Neighborhood), cutsearch.Witness(cut)); err != nil {
		return fmt.Errorf("zcpa: %w", err)
	}
	return nil
}

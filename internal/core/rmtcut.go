package core

import (
	"context"
	"fmt"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// RMTCut is a witness for Definition 3: a cut C = C1 ∪ C2 separating D
// from R with C1 ∈ 𝒵 and C2 ∩ V(γ(B)) ∈ Z_B, where B is the connected
// component of R in G − C and Z_B = ⊕_{v∈B} Z_v. Its existence is the tight
// impossibility condition for RMT in the partial knowledge model
// (Theorems 3 and 5).
type RMTCut struct {
	C1, C2 nodeset.Set
	B      nodeset.Set
}

// Cut returns C1 ∪ C2.
func (c RMTCut) Cut() nodeset.Set { return c.C1.Union(c.C2) }

func (c RMTCut) String() string {
	return fmt.Sprintf("RMTCut(C1=%v, C2=%v, B=%v)", c.C1, c.C2, c.B)
}

// FindRMTCut searches the instance for an RMT-cut, returning a witness if
// one exists.
//
// Completeness of the search (DESIGN.md §4): for any RMT-cut C with
// receiver component B, the boundary N(B) is itself an RMT-cut witness for
// the same B — C1 may be replaced by N(B) ∩ M for the maximal M ∈ 𝒵
// covering it (monotone), and shrinking C2 only shrinks C2 ∩ V(γ(B))
// (monotone again). So enumerating connected receiver-side candidates B
// with C = N(B), against every maximal M, is exhaustive. The search runs on
// the cutsearch kernel, which decides C2 ∩ V(γ(B)) ∈ Z_B node by node
// (C2 ∩ V(γ(u)) ∈ Z_u for every u ∈ B) instead of folding ⊕ over B.
func FindRMTCut(in *instance.Instance) (RMTCut, bool) {
	cut, found, _ := FindRMTCutBounded(in, 0)
	return cut, found
}

// FindRMTCutBounded is FindRMTCut with a search budget: at most
// maxCandidates receiver-side candidates are inspected (0 = unlimited).
// complete reports whether the search space was fully covered; when it is
// false and found is false, the instance's status is unknown — larger
// graphs can use this as an anytime check. A found witness is always
// genuine regardless of completeness (VerifyRMTCut accepts it).
func FindRMTCutBounded(in *instance.Instance, maxCandidates int) (witness RMTCut, found, complete bool) {
	witness, found, complete, _ = findRMTCut(context.Background(), in, maxCandidates)
	return witness, found, complete
}

// FindRMTCutCtx is FindRMTCut under a context: the enumeration polls
// ctx.Err() once per receiver-side candidate and aborts with the context's
// error, so a caller-imposed deadline or cancellation stops the
// (worst-case exponential) search promptly instead of letting it run to
// completion. A found witness is always genuine.
func FindRMTCutCtx(ctx context.Context, in *instance.Instance) (RMTCut, bool, error) {
	witness, found, _, err := findRMTCut(ctx, in, 0)
	return witness, found, err
}

func findRMTCut(ctx context.Context, in *instance.Instance, maxCandidates int) (RMTCut, bool, bool, error) {
	w, found, complete, err := cutsearch.Search(ctx, cutsearch.FromInstance(in, cutsearch.JointView), maxCandidates)
	return RMTCut(w), found, complete, err
}

// Solvable reports whether RMT is solvable on the instance, by the tight
// condition of Theorems 3 and 5 (no RMT-cut). By Theorem 5 this is exactly
// when RMT-PKA succeeds, which Resilient verifies operationally; the two
// must always agree, and the test suite and experiment E2 assert they do.
func Solvable(in *instance.Instance) bool {
	_, found := FindRMTCut(in)
	return !found
}

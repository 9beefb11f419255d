package zcpa

import (
	"context"
	"fmt"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// ZppCut is a witness for Definition 7: an RMT 𝒵-pp cut C = C1 ∪ C2
// separating D from R where C1 ∈ 𝒵 and every node u on the receiver side B
// has N(u) ∩ C2 ∈ Z_u. Its existence is exactly the impossibility condition
// for ad hoc RMT (Theorems 7 and 8).
type ZppCut struct {
	C1, C2 nodeset.Set
	B      nodeset.Set // the receiver-side component used as witness
}

// Cut returns C1 ∪ C2.
func (c ZppCut) Cut() nodeset.Set { return c.C1.Union(c.C2) }

func (c ZppCut) String() string {
	return fmt.Sprintf("ZppCut(C1=%v, C2=%v, B=%v)", c.C1, c.C2, c.B)
}

// Rule names the set Definition 7 tests C2 against at each u ∈ B: N(u).
func (ZppCut) Rule() cutsearch.Rule { return cutsearch.Neighborhood }

// IncrementalCut maintains the RMT 𝒵-pp cut verdict across instance
// revisions — the ad hoc counterpart of core.IncrementalCut; see
// cutsearch.Incremental. The zero value is ready to use.
type IncrementalCut = cutsearch.Incremental[ZppCut]

// NewIncrementalCut returns an empty checker; the first Check runs fresh.
func NewIncrementalCut() *IncrementalCut { return &IncrementalCut{} }

// FindRMTZppCut searches for an RMT 𝒵-pp cut in the instance, returning a
// witness if one exists.
//
// The search enumerates connected receiver-side candidates B (with
// C = N(B), the least cut realizing that side; the cut predicate is
// monotone-decreasing in C2, and shrinking B only drops ∀u∈B constraints,
// so restricting to component-shaped B with minimal boundary is complete —
// see DESIGN.md §4). For each candidate, C1 is best chosen as C ∩ M for a
// maximal M ∈ 𝒵. The search runs on the cutsearch kernel with P_u = N(u).
//
// The enumeration is exponential in |V| in the worst case, as expected for
// a tight characterization of an NP-hard-style cut condition; instances in
// this repository keep it small.
func FindRMTZppCut(in *instance.Instance) (ZppCut, bool) {
	cut, found, _ := FindRMTZppCutBounded(in, 0)
	return cut, found
}

// FindRMTZppCutBounded is FindRMTZppCut with a search budget: at most
// maxCandidates receiver-side candidates are inspected (0 = unlimited).
// complete reports full coverage of the search space; a found witness is
// always genuine (VerifyZppCut accepts it).
func FindRMTZppCutBounded(in *instance.Instance, maxCandidates int) (witness ZppCut, found, complete bool) {
	witness, found, complete, _ = findRMTZppCut(context.Background(), in, maxCandidates)
	return witness, found, complete
}

// FindRMTZppCutCtx is FindRMTZppCut under a context: the enumeration polls
// ctx.Err() once per receiver-side candidate and aborts with the context's
// error, so a caller-imposed deadline or cancellation stops the
// (worst-case exponential) search promptly instead of letting it run to
// completion. A found witness is always genuine.
func FindRMTZppCutCtx(ctx context.Context, in *instance.Instance) (ZppCut, bool, error) {
	witness, found, _, err := findRMTZppCut(ctx, in, 0)
	return witness, found, err
}

func findRMTZppCut(ctx context.Context, in *instance.Instance, maxCandidates int) (ZppCut, bool, bool, error) {
	w, found, complete, err := cutsearch.Search(ctx, cutsearch.FromInstance(in, cutsearch.Neighborhood), maxCandidates)
	return ZppCut(w), found, complete, err
}

// Solvable reports whether ad hoc RMT is solvable on the instance, by the
// tight condition of Theorems 7–8 (no RMT 𝒵-pp cut). By Theorem 7 this is
// exactly when 𝒵-CPA succeeds, which Resilient verifies operationally; the
// two must always agree, and the test suite asserts they do.
func Solvable(in *instance.Instance) bool {
	_, found := FindRMTZppCut(in)
	return !found
}

package zcpa

import (
	"context"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
)

// IncrementalCut maintains an RMT 𝒵-pp cut verdict across a sequence of
// instance revisions — the ad hoc counterpart of core.IncrementalCut,
// with the same contract: while the instance stays infeasible, each
// revision re-verifies the previous witness (two BFS passes plus one
// candidate evaluation with the ∀u ∈ B local check) and only falls back to
// the full FindRMTZppCut enumeration when repair fails or no certificate
// exists.
// Verdicts always equal a fresh search's; witnesses may differ.
//
// The zero value is ready to use. Not safe for concurrent use.
type IncrementalCut struct {
	witness ZppCut
	found   bool
	primed  bool

	repaired, fresh int
}

// NewIncrementalCut returns an empty checker; the first Check runs fresh.
func NewIncrementalCut() *IncrementalCut { return &IncrementalCut{} }

// Seed primes the checker with a known verdict for the *current* revision.
// A seeded witness is trusted; callers holding untrusted bytes should
// VerifyZppCut first.
func (ic *IncrementalCut) Seed(witness ZppCut, found bool) {
	ic.witness, ic.found, ic.primed = witness, found, true
}

// Check evaluates the next revision, preferring witness repair over fresh
// enumeration, and remembers the result for the revision after.
func (ic *IncrementalCut) Check(in *instance.Instance) (ZppCut, bool) {
	w, f, _ := ic.CheckCtx(context.Background(), in)
	return w, f
}

// CheckCtx is Check under a context. On a context error the checker's
// state is left untouched and the caller may retry.
func (ic *IncrementalCut) CheckCtx(ctx context.Context, in *instance.Instance) (ZppCut, bool, error) {
	if ic.primed && ic.found {
		if w, ok := repairZppCut(in, ic.witness); ok {
			ic.repaired++
			ic.witness = w
			return w, true, nil
		}
	}
	w, f, err := FindRMTZppCutCtx(ctx, in)
	if err != nil {
		return ZppCut{}, false, err
	}
	ic.fresh++
	ic.witness, ic.found, ic.primed = w, f, true
	return w, f, nil
}

// Stats returns how many revisions were answered by witness repair and how
// many needed the full enumeration.
func (ic *IncrementalCut) Stats() (repaired, fresh int) { return ic.repaired, ic.fresh }

// repairZppCut tries to turn a witness for the previous revision into one
// for in; see core.repairRMTCut for the shape argument. The candidate
// predicate here is Definition 7's: ∀u ∈ B, N(u) ∩ C2 ∈ Z_u.
func repairZppCut(in *instance.Instance, old ZppCut) (ZppCut, bool) {
	w, ok := cutsearch.Repair(in, cutsearch.Neighborhood, cutsearch.Witness(old))
	return ZppCut(w), ok
}

package core

import (
	"context"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
)

// IncrementalCut maintains an RMT-cut verdict across a sequence of
// instance revisions (e.g. a base instance followed by topology deltas).
// The exponential enumeration only runs when it must: while the instance
// stays infeasible, each revision is answered by re-verifying the previous
// revision's witness against the new graph — two BFS passes plus one
// candidate evaluation — and only a repair failure (or a previously feasible
// instance, which carries no certificate) falls back to FindRMTCut.
//
// Soundness: a repaired witness is constructed in the searcher's own shape
// (B the receiver component of G − N(B), C = N(B)) and passes the same
// predicate, so VerifyRMTCut accepts it. Completeness is inherited from
// the fallback: when repair fails the full enumeration decides, so the
// *verdict* (solvable or not) is always identical to a fresh FindRMTCut —
// the differential tests pin this — though the witness sets may differ.
//
// The zero value is ready to use. Not safe for concurrent use.
type IncrementalCut struct {
	witness RMTCut
	found   bool
	primed  bool

	repaired, fresh int
}

// NewIncrementalCut returns an empty checker; the first Check runs fresh.
func NewIncrementalCut() *IncrementalCut { return &IncrementalCut{} }

// Seed primes the checker with a known verdict for the *current* revision,
// e.g. one decoded from a cache. A seeded witness is trusted; callers
// holding untrusted bytes should VerifyRMTCut first.
func (ic *IncrementalCut) Seed(witness RMTCut, found bool) {
	ic.witness, ic.found, ic.primed = witness, found, true
}

// Check evaluates the next revision, preferring witness repair over fresh
// enumeration, and remembers the result for the revision after.
func (ic *IncrementalCut) Check(in *instance.Instance) (RMTCut, bool) {
	w, f, _ := ic.CheckCtx(context.Background(), in)
	return w, f
}

// CheckCtx is Check under a context. On a context error the checker's
// state is left untouched (the revision was not decided), and the caller
// may retry.
func (ic *IncrementalCut) CheckCtx(ctx context.Context, in *instance.Instance) (RMTCut, bool, error) {
	if ic.primed && ic.found {
		if w, ok := repairRMTCut(in, ic.witness); ok {
			ic.repaired++
			ic.witness = w
			return w, true, nil
		}
	}
	w, f, err := FindRMTCutCtx(ctx, in)
	if err != nil {
		return RMTCut{}, false, err
	}
	ic.fresh++
	ic.witness, ic.found, ic.primed = w, f, true
	return w, f, nil
}

// Stats returns how many revisions were answered by witness repair and how
// many needed the full enumeration.
func (ic *IncrementalCut) Stats() (repaired, fresh int) { return ic.repaired, ic.fresh }

// repairRMTCut tries to turn a witness for the previous revision into one
// for in. The old cut (restricted to surviving nodes) still separates D
// from R or it doesn't: if it does, B' = comp_R(G − C_old) with the tight
// cut N(B') is a candidate in exactly the searcher's shape, and one pass
// over the maximal sets decides it. Cost: two BFS passes + one candidate
// evaluation over B's nodes, versus the enumeration's worst-case
// exponential.
func repairRMTCut(in *instance.Instance, old RMTCut) (RMTCut, bool) {
	w, ok := cutsearch.Repair(cutsearch.FromInstance(in, cutsearch.JointView), cutsearch.Witness(old))
	return RMTCut(w), ok
}

package cutsearch

import (
	"context"

	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// Cut is the witness type of one RMT condition: core.RMTCut (Definition 3)
// or zcpa.ZppCut (Definition 7). It has Witness's shape, so the two
// convert, and it names the Rule its condition tests.
type Cut interface {
	~struct{ C1, C2, B nodeset.Set }
	Rule() Rule
}

// Incremental maintains one RMT condition's verdict across a sequence of
// instance revisions, e.g. a base instance followed by topology deltas.
// The exponential Search only runs when it must: while the instance stays
// infeasible, each revision is answered by Repair of the previous
// revision's witness — two BFS passes plus one candidate — and only a
// failed repair, or a feasible previous revision (which carries no
// certificate), falls back to Search.
//
// A repaired witness has the search's own shape and passes the same
// predicate, so Verify accepts it; when repair fails the full search
// decides, so the verdict always equals a fresh Search's, though the
// witness may differ.
//
// The zero value is ready to use, and until it is primed a Check is a
// plain Search. Not safe for concurrent use.
type Incremental[W Cut] struct {
	witness       W
	found, primed bool

	repaired, fresh int
}

// Seed primes the checker with a known verdict for the current revision,
// e.g. one decoded from a cache. A seeded witness is trusted; callers
// holding untrusted bytes Verify it first.
func (ic *Incremental[W]) Seed(witness W, found bool) {
	ic.witness, ic.found, ic.primed = witness, found, true
}

// Check evaluates the next revision, preferring witness repair over a
// fresh search, and remembers the result for the revision after.
func (ic *Incremental[W]) Check(in *instance.Instance) (W, bool) {
	w, f, _ := ic.CheckCtx(context.Background(), in)
	return w, f
}

// CheckCtx is Check under a context, which the search polls once per
// candidate. On a context error the checker's state is left untouched
// (the revision was not decided), and the caller may retry.
func (ic *Incremental[W]) CheckCtx(ctx context.Context, in *instance.Instance) (W, bool, error) {
	cond := FromInstance(in, ic.witness.Rule())
	if ic.primed && ic.found {
		if w, ok := Repair(cond, Witness(ic.witness)); ok {
			ic.repaired++
			ic.witness = W(w)
			return ic.witness, true, nil
		}
	}
	w, found, _, err := Search(ctx, cond, 0)
	if err != nil {
		var none W
		return none, false, err
	}
	ic.fresh++
	ic.witness, ic.found, ic.primed = W(w), found, true
	return ic.witness, found, nil
}

// Stats returns how many revisions were answered by witness repair and how
// many needed the full search.
func (ic *Incremental[W]) Stats() (repaired, fresh int) { return ic.repaired, ic.fresh }

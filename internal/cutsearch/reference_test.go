package cutsearch_test

// The reference side of the kernel ≡ reference differential: the ⊕-based
// RMT-cut search and repair and the memoized 𝒵-pp-cut search and repair
// that core and zcpa ran before the word-level kernel, kept as they were up
// to naming (the repairs' receiver component now comes from RemoveNodes and
// ComponentOf, the subgraph form of the BFS they used). They test Definition 3's C2 ∩ V(γ(B)) ∈ Z_B through the ⊕ fold
// of the instance's JoinCache and Definition 7's N(u) ∩ C2 ∈ Z_u through
// the restricted local structures, exactly as the definitions are written —
// so this file, not VerifyRMTCut/VerifyZppCut, is what checks the kernel's
// "no cut" verdicts.

import (
	"context"

	"rmt/internal/cutsearch"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// refPredicate decides one candidate side B with C2 = C \ M: through the
// ⊕ fold for Definition 3, with the per-node memo for Definition 7.
func refPredicate(in *instance.Instance, rule cutsearch.Rule) func(b, c2 nodeset.Set) bool {
	if rule == cutsearch.JointView {
		return func(b, c2 nodeset.Set) bool {
			vgb := in.JointViewNodes(b)
			zb := in.JointStructure(b)
			return zb.Contains(c2.Intersect(vgb))
		}
	}
	memo := make(map[int]map[string]bool)
	return func(b, c2 nodeset.Set) bool { return refHoldsForAll(in, b, c2, memo) }
}

// refHoldsForAll checks ∀u ∈ B: N(u) ∩ C2 ∈ Z_u with per-node verdicts
// memoized by Set.Key().
func refHoldsForAll(in *instance.Instance, b, c2 nodeset.Set, memo map[int]map[string]bool) bool {
	ok := true
	b.ForEach(func(u int) bool {
		part := in.G.Neighbors(u).Intersect(c2)
		byPart := memo[u]
		if byPart == nil {
			byPart = make(map[string]bool)
			memo[u] = byPart
		}
		k := part.Key()
		res, seen := byPart[k]
		if !seen {
			res = in.LocalStructure(u).Contains(part)
			byPart[k] = res
		}
		ok = res
		return ok
	})
	return ok
}

func refSearch(ctx context.Context, in *instance.Instance, rule cutsearch.Rule, maxCandidates int) (witness cutsearch.Witness, found, complete bool, err error) {
	if !in.G.Connected(in.Dealer, in.Receiver) {
		return cutsearch.Witness{
			C1: nodeset.Empty(),
			C2: nodeset.Empty(),
			B:  in.G.ComponentOf(in.Receiver),
		}, true, true, nil
	}
	holds := refPredicate(in, rule)
	inspected := 0
	complete = true
	in.G.ReceiverSideCandidates(in.Dealer, in.Receiver, func(b, cut nodeset.Set) bool {
		if err = ctx.Err(); err != nil {
			complete = false
			return false
		}
		if maxCandidates > 0 && inspected >= maxCandidates {
			complete = false
			return false
		}
		inspected++
		for _, m := range in.Z.Maximal() {
			c2 := cut.Minus(m)
			if holds(b, c2) {
				witness = cutsearch.Witness{C1: cut.Intersect(m), C2: c2, B: b}
				found = true
				return false
			}
		}
		return true
	})
	return witness, found, complete, err
}

func refRepair(in *instance.Instance, rule cutsearch.Rule, old cutsearch.Witness) (cutsearch.Witness, bool) {
	if !in.G.Connected(in.Dealer, in.Receiver) {
		return cutsearch.Witness{
			C1: nodeset.Empty(),
			C2: nodeset.Empty(),
			B:  in.G.ComponentOf(in.Receiver),
		}, true
	}
	c := old.C1.Union(old.C2).Intersect(in.G.Nodes())
	if c.Contains(in.Dealer) || c.Contains(in.Receiver) {
		return cutsearch.Witness{}, false
	}
	b := in.G.RemoveNodes(c).ComponentOf(in.Receiver)
	if b.Contains(in.Dealer) {
		return cutsearch.Witness{}, false
	}
	cut := in.G.Boundary(b)
	holds := refPredicate(in, rule)
	for _, m := range in.Z.Maximal() {
		c2 := cut.Minus(m)
		if holds(b, c2) {
			return cutsearch.Witness{C1: cut.Intersect(m), C2: c2, B: b}, true
		}
	}
	return cutsearch.Witness{}, false
}

// refIncremental is IncrementalCut's control flow over the reference
// search and repair.
type refIncremental struct {
	rule            cutsearch.Rule
	witness         cutsearch.Witness
	found, primed   bool
	repaired, fresh int
}

func (ic *refIncremental) check(in *instance.Instance) (cutsearch.Witness, bool) {
	if ic.primed && ic.found {
		if w, ok := refRepair(in, ic.rule, ic.witness); ok {
			ic.repaired++
			ic.witness = w
			return w, true
		}
	}
	w, f, _, _ := refSearch(context.Background(), in, ic.rule, 0)
	ic.fresh++
	ic.witness, ic.found, ic.primed = w, f, true
	return w, f
}

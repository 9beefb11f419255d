package cutsearch_test

// The reference side of the kernel ≡ reference differential: the searches,
// repairs and verifiers every cut condition ran before it moved onto the
// kernel, kept as they were up to naming. Candidates come from the walk's
// receiver sides as Sets, the enumeration the parent's Set adapters gave,
// and the repairs' receiver component from RemoveNodes and ComponentOf.
// They test Definitions 3 and 6 through the uncached ⊕ fold
// (LocalKnowledge.JointOf and Gamma.Joint), Definitions 7 and 10 through
// the restricted local structures, and the pair cut through
// Structure.CoversWith, exactly as the definitions are written — so this
// file, not Verify, is what checks the kernel's "no cut" verdicts.

import (
	"context"
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/broadcast"
	"rmt/internal/cutsearch"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// refSides hands fn the receiver sides (B, N(B)) of D–R cuts excluding the
// dealer, as Sets: every connected set from the receiver with the dealer
// banned, dropping those whose boundary holds the dealer here rather than
// through the walk's skip, so the kernel's pruned walk is compared against
// one that prunes nothing.
func refSides(g *graph.Graph, dealer, receiver int, fn func(b, cut nodeset.Set) bool) {
	wk := g.NewWalk()
	wk.Sides(receiver, nodeset.Of(dealer), -1, func(b, row []uint64) bool {
		cut := nodeset.FromWords(row)
		return cut.Contains(dealer) || fn(nodeset.FromWords(b), cut)
	})
}

// refPredicate decides one candidate side B with C2 = C \ M: through the
// ⊕ fold for Definition 3, with the per-node memo for Definition 7.
func refPredicate(in *instance.Instance, rule cutsearch.Rule) func(b, c2 nodeset.Set) bool {
	if rule == cutsearch.JointView {
		return func(b, c2 nodeset.Set) bool {
			vgb := in.Gamma.Joint(b).Nodes()
			zb := in.LocalKnowledge().JointOf(b)
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
	refSides(in.G, in.Dealer, in.Receiver, func(b, cut nodeset.Set) bool {
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
	found           bool
	repaired, fresh int
}

func (ic *refIncremental) check(in *instance.Instance) (cutsearch.Witness, bool) {
	if ic.found {
		if w, ok := refRepair(in, ic.rule, ic.witness); ok {
			ic.repaired++
			ic.witness = w
			return w, true
		}
	}
	w, f, _, _ := refSearch(context.Background(), in, ic.rule, 0)
	ic.fresh++
	ic.witness, ic.found = w, f
	return w, f
}

// refBroadcastZppCut is Definition 10's search as broadcast.FindZppCut ran
// it: every connected set B avoiding the dealer, walked from each
// non-dealer start with the smaller IDs banned, whose boundary misses the
// dealer, against every maximal set through the local structures.
func refBroadcastZppCut(in *broadcast.Instance) (broadcast.ZppCut, bool) {
	var (
		witness broadcast.ZppCut
		found   bool
	)
	in.G.Nodes().ForEach(func(start int) bool {
		if start == in.Dealer {
			return true
		}
		banned := nodeset.Of(in.Dealer)
		in.G.Nodes().ForEach(func(v int) bool {
			if v < start {
				banned = banned.Add(v)
			}
			return true
		})
		wk := in.G.NewWalk()
		wk.Sides(start, banned, -1, func(row, _ []uint64) bool {
			b := nodeset.FromWords(row)
			cut := in.G.Boundary(b)
			if cut.Contains(in.Dealer) {
				return true
			}
			for _, m := range in.Z.Maximal() {
				c2 := cut.Minus(m)
				ok := true
				b.ForEach(func(u int) bool {
					ok = in.LocalStructure(u).Contains(in.G.Neighbors(u).Intersect(c2))
					return ok
				})
				if ok {
					witness = broadcast.ZppCut{C1: cut.Intersect(m), C2: c2, B: b}
					found = true
					return false
				}
			}
			return true
		})
		return !found
	})
	return witness, found
}

// refPairCut is ppa.PairCut as it ran before the kernel: the first
// receiver side whose cut two admissible sets cover.
func refPairCut(in *instance.Instance) (z1, z2 nodeset.Set, found bool) {
	if !in.G.Connected(in.Dealer, in.Receiver) {
		return nodeset.Empty(), nodeset.Empty(), true
	}
	refSides(in.G, in.Dealer, in.Receiver, func(b, cut nodeset.Set) bool {
		if c1, c2, covered := in.Z.CoversWith(cut); covered {
			z1, z2, found = c1, c2, true
			return false
		}
		return true
	})
	return z1, z2, found
}

// refCover is the PKA receiver's ⊕-fold adversary cover (Definition 6) as
// coverFresh ran it: some receiver side B of G_M with
// N(B) ∩ V(γ(B)) ∈ Z_B, γ(B) and Z_B folded from the claims.
func refCover(gm *graph.Graph, dealer, receiver int, claims claimSet) bool {
	lk := adversary.LocalKnowledge{}
	for v, c := range claims {
		lk[v] = c.z
	}
	covered := false
	refSides(gm, dealer, receiver, func(b, cut nodeset.Set) bool {
		var views nodeset.Set
		b.ForEach(func(v int) bool {
			views.MutateUnion(claims[v].view.Nodes())
			return true
		})
		if lk.JointOf(b).Contains(cut.Intersect(views)) {
			covered = true
			return false
		}
		return true
	})
	return covered
}

// refVerify is VerifyRMTCut (JointView: step 5 through the ⊕ fold) and
// VerifyZppCut (Neighborhood: through the local structures) as they ran
// before sharing the kernel's per-node test.
func refVerify(in *instance.Instance, rule cutsearch.Rule, cut cutsearch.Witness) error {
	c := cut.C1.Union(cut.C2)
	if cut.C1.Intersects(cut.C2) {
		return fmt.Errorf("C1 %v and C2 %v overlap", cut.C1, cut.C2)
	}
	if c.Contains(in.Dealer) || c.Contains(in.Receiver) {
		return fmt.Errorf("cut %v contains a terminal", c)
	}
	if !c.SubsetOf(in.G.Nodes()) {
		return fmt.Errorf("cut %v contains non-nodes", c)
	}
	if !in.G.Separates(c, in.Dealer, in.Receiver) && in.G.Connected(in.Dealer, in.Receiver) {
		return fmt.Errorf("%v does not separate %d from %d", c, in.Dealer, in.Receiver)
	}
	if comp := in.G.RemoveNodes(c).ComponentOf(in.Receiver); !comp.Equal(cut.B) {
		return fmt.Errorf("B %v is not the receiver component %v", cut.B, comp)
	}
	if !in.Z.Contains(cut.C1) {
		return fmt.Errorf("C1 %v is not admissible", cut.C1)
	}
	if rule == cutsearch.JointView {
		vgb := in.Gamma.Joint(cut.B).Nodes()
		if part := cut.C2.Intersect(vgb); !in.LocalKnowledge().JointOf(cut.B).Contains(part) {
			return fmt.Errorf("C2 ∩ V(γ(B)) = %v is not in Z_B", part)
		}
		return nil
	}
	var bad error
	cut.B.ForEach(func(u int) bool {
		if part := in.G.Neighbors(u).Intersect(cut.C2); !in.LocalStructure(u).Contains(part) {
			bad = fmt.Errorf("N(%d) ∩ C2 = %v is not in Z_%d", u, part, u)
		}
		return bad == nil
	})
	return bad
}

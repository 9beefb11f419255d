// Package cutsearch is the word-level kernel behind the paper's two tight
// cut conditions: the RMT-cut of Definition 3 (no RMT-cut ⟺ RMT is
// solvable, Theorems 3 and 5) and the RMT 𝒵-pp cut of Definition 7 (the ad
// hoc counterpart, Theorems 7 and 8). core.FindRMTCut, zcpa.FindRMTZppCut
// and both packages' incremental repairs are thin wrappers around Search
// and Repair.
//
// Both conditions ask for a D–R cut C = C1 ∪ C2 with C1 ∈ 𝒵 and a side
// condition on C2 over the receiver side B; both searches walk the
// receiver-side candidates (B, C = N(B)) of graph.Walk.ReceiverSides and
// try 𝒵's maximal sets M in Maximal() order with C1 = C ∩ M, C2 = C \ M
// (DESIGN.md §4 argues completeness). The side conditions reduce to one
// per-node predicate. With t = C2 ∩ P_u, node u ∈ B passes when
//
//	t ⊆ V(γ(u))  and  t ⊆ M′ for some maximal M′ ∈ 𝒵,
//
// which says t ∈ Z_u = 𝒵^{V(γ(u))}. P_u = N(u) is Definition 7 verbatim.
// P_u = V(γ(u)) is Definition 3: by the ⊕ membership identity
// S ∈ ⊕_{v∈B} Z_v ⟺ S ⊆ V(γ(B)) ∧ ∀v ∈ B: S ∩ V(γ(v)) ∈ Z_v (DESIGN.md §4
// proves it from Definition 2), C2 ∩ V(γ(B)) ∈ Z_B holds exactly when
// every u ∈ B passes — so the RMT-cut test needs no ⊕ fold.
//
// All sets are fixed-width rows of 64-bit words: 𝒵's maximal sets,
// V(γ(u)) per node and scratch rows in one slab per search, and the
// adjacency rows in the graph.Walk. Per-node tables have a row per node,
// not per ID, so memory is O(|V|·W) even when IDs are sparse. Nothing is
// allocated per candidate, and a found witness becomes nodeset.Sets once.
package cutsearch

import (
	"context"
	"math/bits"

	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// Rule selects the set P_u the predicate intersects C2 with.
type Rule uint8

const (
	// JointView is Definition 3 (RMT-cut): P_u = V(γ(u)).
	JointView Rule = iota
	// Neighborhood is Definition 7 (RMT 𝒵-pp cut): P_u = N(u).
	Neighborhood
)

// Witness is a cut C = C1 ∪ C2 with C1 = C ∩ M for a maximal M ∈ 𝒵, and B
// the receiver side whose boundary C is. core.RMTCut and zcpa.ZppCut share
// its shape and convert to and from it.
type Witness struct {
	C1, C2 nodeset.Set
	B      nodeset.Set
}

// kernel holds one search's rows. In a Search, view holds a row per node
// of G at index walk.Rank(u), and P_u = N(u) is read from the walk. In a
// Repair (walk == nil), view and part hold a row per member of the one
// candidate B, in increasing ID order, built on first use.
type kernel struct {
	in    *instance.Instance
	rule  Rule
	w, nz int
	walk  *graph.Walk
	zmax  []uint64 // 𝒵's maximal sets, in Maximal() order
	view  []uint64 // V(γ(u)) rows
	part  []uint64 // P_u rows (Repair only)
	c2, t []uint64 // scratch rows
}

// newKernel carves the 𝒵max and scratch rows from the front of slab and
// returns the rest.
func newKernel(in *instance.Instance, rule Rule, slab []uint64) (kernel, []uint64) {
	w := in.G.RowWidth()
	zm := in.Z.Maximal()
	k := kernel{in: in, rule: rule, w: w, nz: len(zm)}
	k.zmax, slab = slab[:len(zm)*w], slab[len(zm)*w:]
	for i, m := range zm {
		m.CopyTo(k.zmax[i*w : (i+1)*w])
	}
	k.c2, k.t, slab = slab[:w:w], slab[w:2*w:2*w], slab[2*w:]
	return k, slab
}

// Search looks for a witness of the rule's cut condition, inspecting
// candidates in the order graph.Walk.ReceiverSides visits them. At most
// maxCandidates candidates are inspected (0 = unlimited); complete reports
// whether the search space was fully covered. ctx is polled once per
// inspected candidate and its error aborts the search. Disconnected
// terminals admit the empty cut, whose witness is returned without
// walking.
func Search(ctx context.Context, in *instance.Instance, rule Rule, maxCandidates int) (witness Witness, found, complete bool, err error) {
	g := in.G
	w := g.RowWidth()
	// Slab: 𝒵max, 2 scratch, then V(γ(u)) per node.
	slab := make([]uint64, (in.Z.NumMaximal()+2+g.NumNodes())*w)
	k, rest := newKernel(in, rule, slab)
	walk := g.NewWalk()
	k.walk, k.view = &walk, rest
	r := 0 // walk.Rank(u): ranks count up in ID order
	g.Nodes().ForEach(func(u int) bool {
		in.Gamma.NodesOf(u).CopyTo(k.view[r*w : (r+1)*w])
		r++
		return true
	})

	if comp := k.c2; !connected(comp, k.t, in, walk.Row) {
		return disconnected(comp), true, true, nil
	}
	inspected := 0
	complete = true
	walk.ReceiverSides(in.Dealer, in.Receiver, func(b, cut []uint64) bool {
		if err = ctx.Err(); err != nil {
			complete = false
			return false
		}
		if maxCandidates > 0 && inspected >= maxCandidates {
			complete = false
			return false
		}
		inspected++
		if m := k.firstMaximal(b, cut); m >= 0 {
			witness, found = k.witness(b, cut, m), true
			return false
		}
		return true
	})
	return witness, found, complete, err
}

// Repair re-evaluates an earlier revision's witness on in: the old cut,
// while it still separates D from R, leaves one candidate in the search's
// own shape — B = comp_R(G − C_old) with the tight cut N(B) ⊆ C_old — and
// one pass over the maximal sets decides it. It reports false when the
// old cut no longer separates or the candidate fails; the caller then
// falls back to Search. Cost: two BFS passes plus one candidate, with
// rows built for B's members only.
func Repair(in *instance.Instance, rule Rule, old Witness) (Witness, bool) {
	g := in.G
	// Slab: 𝒵max, 2 scratch, then B, N(B), C_old and a neighbor row.
	slab := make([]uint64, (in.Z.NumMaximal()+6)*g.RowWidth())
	k, rest := newKernel(in, rule, slab)
	w := k.w
	b, cut, blocked, nbr := rest[:w], rest[w:2*w], rest[2*w:3*w], rest[3*w:]
	neighbors := func(v int) []uint64 {
		g.Neighbors(v).CopyTo(nbr)
		return nbr
	}
	if !connected(b, k.t, in, neighbors) {
		return disconnected(b), true
	}
	old.C1.CopyTo(blocked)
	old.C2.CopyTo(k.c2)
	for i := range blocked {
		blocked[i] |= k.c2[i]
	}
	if has(blocked, in.Dealer) || has(blocked, in.Receiver) {
		return Witness{}, false
	}
	// B = comp_R(G − C_old). Every neighbor of B outside B is blocked, so
	// N(B) ⊆ C_old collects as the BFS goes.
	clear(cut)
	component(b, k.t, in.Receiver, func(v int) []uint64 {
		row := neighbors(v)
		for i := range row {
			cut[i] |= row[i]
			row[i] &^= blocked[i]
		}
		return row
	})
	if has(b, in.Dealer) {
		return Witness{}, false // the old cut no longer separates
	}
	for i := range cut {
		cut[i] &^= b[i]
	}
	if m := k.firstMaximal(b, cut); m >= 0 {
		return k.witness(b, cut, m), true
	}
	return Witness{}, false
}

// firstMaximal returns the index of the first maximal M ∈ 𝒵 for which
// every u ∈ B passes with C2 = cut \ M, or -1. An empty C2 passes
// outright: ∅ belongs to every structure.
func (k *kernel) firstMaximal(b, cut []uint64) int {
	w := k.w
	for m := 0; m < k.nz; m++ {
		zm := k.zmax[m*w : (m+1)*w]
		empty := true
		for i := range k.c2 {
			k.c2[i] = cut[i] &^ zm[i]
			empty = empty && k.c2[i] == 0
		}
		if empty || k.allPass(b) {
			return m
		}
	}
	return -1
}

// allPass reports whether every u ∈ B passes for C2 = k.c2: t = C2 ∩ P_u
// lies in V(γ(u)) and inside some maximal set of 𝒵.
func (k *kernel) allPass(b []uint64) bool {
	if k.walk == nil && k.view == nil {
		k.memberRows(b)
	}
	i := 0 // u's position in B
	for wi, word := range b {
		for ; word != 0; word &= word - 1 {
			view, p := k.rows(wi*64+bits.TrailingZeros64(word), i)
			i++
			empty := true
			for j := range k.t {
				k.t[j] = k.c2[j] & p[j]
				empty = empty && k.t[j] == 0
			}
			if !empty && (!subset(k.t, view) || !k.admissible(k.t)) {
				return false
			}
		}
	}
	return true
}

// rows returns V(γ(u)) and P_u for u, the i-th member of B in ID order.
func (k *kernel) rows(u, i int) (view, part []uint64) {
	w := k.w
	if k.walk == nil {
		return k.view[i*w : (i+1)*w], k.part[i*w : (i+1)*w]
	}
	r := k.walk.Rank(u)
	view = k.view[r*w : (r+1)*w]
	if k.rule == Neighborhood {
		return view, k.walk.Row(u)
	}
	return view, view
}

// memberRows builds the V(γ(u)) and P_u rows of B's members for a Repair.
func (k *kernel) memberRows(b []uint64) {
	size := 0
	for _, x := range b {
		size += bits.OnesCount64(x)
	}
	w := k.w
	k.view = make([]uint64, size*w)
	k.part = k.view
	if k.rule == Neighborhood {
		k.part = make([]uint64, size*w)
	}
	r := 0
	for i, x := range b {
		for ; x != 0; x &= x - 1 {
			u := i*64 + bits.TrailingZeros64(x)
			k.in.Gamma.NodesOf(u).CopyTo(k.view[r*w : (r+1)*w])
			if k.rule == Neighborhood {
				k.in.G.Neighbors(u).CopyTo(k.part[r*w : (r+1)*w])
			}
			r++
		}
	}
}

// admissible reports whether t ⊆ M′ for some maximal M′ ∈ 𝒵.
func (k *kernel) admissible(t []uint64) bool {
	w := k.w
	for m := 0; m < k.nz; m++ {
		if subset(t, k.zmax[m*w:(m+1)*w]) {
			return true
		}
	}
	return false
}

// witness materializes (C ∩ M, C \ M, B) for the m-th maximal set.
func (k *kernel) witness(b, cut []uint64, m int) Witness {
	zm := k.zmax[m*k.w : (m+1)*k.w]
	for i := range cut {
		k.t[i] = cut[i] & zm[i]
		k.c2[i] = cut[i] &^ zm[i]
	}
	return Witness{C1: nodeset.FromWords(k.t), C2: nodeset.FromWords(k.c2), B: nodeset.FromWords(b)}
}

// connected writes comp_R(G) into comp and reports whether it holds the
// dealer; when it does not, the empty cut separates D from R.
func connected(comp, todo []uint64, in *instance.Instance, row func(v int) []uint64) bool {
	component(comp, todo, in.Receiver, row)
	return has(comp, in.Dealer)
}

// disconnected is the witness for terminals that G itself separates: the
// empty cut, with B the receiver's component.
func disconnected(comp []uint64) Witness {
	return Witness{C1: nodeset.Empty(), C2: nodeset.Empty(), B: nodeset.FromWords(comp)}
}

// component writes into comp the connected component of start, reading
// each visited node's neighbors through row, which may mask out blocked
// nodes; todo is a scratch row.
func component(comp, todo []uint64, start int, row func(v int) []uint64) {
	clear(comp)
	clear(todo)
	comp[start/64] |= 1 << uint(start%64)
	todo[start/64] |= 1 << uint(start%64)
	for i := 0; i < len(todo); {
		if todo[i] == 0 {
			i++
			continue
		}
		v := i*64 + bits.TrailingZeros64(todo[i])
		todo[i] &= todo[i] - 1
		for j, x := range row(v) {
			x &^= comp[j]
			comp[j] |= x
			todo[j] |= x
			if x != 0 && j < i {
				i = j
			}
		}
	}
}

func has(row []uint64, v int) bool { return row[v/64]&(1<<uint(v%64)) != 0 }

func subset(s, t []uint64) bool {
	for i, x := range s {
		if x&^t[i] != 0 {
			return false
		}
	}
	return true
}

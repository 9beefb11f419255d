// Package cutsearch is the word-level kernel behind every cut condition of
// the paper: the RMT-cut of Definition 3 (no RMT-cut ⟺ RMT is solvable,
// Theorems 3 and 5), the PKA receiver's adversary cover of Definition 6,
// the RMT 𝒵-pp cut of Definition 7 (Theorems 7 and 8), broadcast's 𝒵-pp
// cut of Definition 10 and PPA's 𝒵-pair cut. core, zcpa, ppa and broadcast
// state their condition as an Input and call Search, Repair and Verify.
//
// Every condition asks for a cut C = C1 ∪ C2 with C1 inside one of a list
// of candidate sets (𝒵's maximal sets, or only ∅ for the cover) and a side
// condition on C2 over the side B. The searches walk the sides
// (B, C = N(B)) of graph.Walk.Sides and try the candidates M in order with
// C1 = C ∩ M, C2 = C \ M (DESIGN.md §4 argues completeness). Every side
// condition is one per-node predicate. With t = C2 ∩ P_u, node u ∈ B
// passes when
//
//	t ⊆ V(γ(u))  and  t ⊆ M′ for one of u's maximal sets M′,
//
// which says t ∈ Z_u. P_u = N(u) is Definitions 7 and 10 verbatim.
// P_u = V(γ(u)) is Definitions 3 and 6: by the ⊕ membership identity
// S ∈ ⊕_{v∈B} Z_v ⟺ S ⊆ V(γ(B)) ∧ ∀v ∈ B: S ∩ V(γ(v)) ∈ Z_v, which DESIGN.md
// §4 proves from Definition 2 for structures whose maximal sets lie in
// their domain V(γ(v)), C2 ∩ V(γ(B)) ∈ Z_B holds exactly when every u ∈ B
// passes — so no condition needs a ⊕ fold. The pair cut is the same test
// with V(G) as every node's view: t = C2 must fit in one maximal set.
//
// All sets are fixed-width rows of 64-bit words: the candidates, the
// per-node rows and scratch rows in the kernel, the adjacency rows in the
// graph.Walk. Per-node tables have a row per node, not per ID, so memory is
// O(|V|·W) even when IDs are sparse. Nothing is allocated per candidate,
// and a found witness becomes nodeset.Sets once.
package cutsearch

import (
	"context"
	"fmt"
	"math/bits"

	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// Rule selects the set P_u the predicate intersects C2 with.
type Rule uint8

const (
	// JointView is Definitions 3 and 6 and the pair cut: P_u = V(γ(u)).
	JointView Rule = iota
	// Neighborhood is Definitions 7 and 10: P_u = N(u).
	Neighborhood
)

// Views is where the kernel reads each node's V(γ(u)); view.Function is
// one.
type Views interface {
	NodesOf(u int) nodeset.Set
}

// Input is one cut condition as the kernel reads it. Callers differ only
// in the rows they describe here, the start nodes Receiver selects and the
// Rule.
type Input struct {
	G      *graph.Graph
	Dealer int
	// Receiver is R for the RMT conditions: their sides grow from R, and
	// terminals G already separates admit the empty cut. Definition 10 has
	// no receiver (-1): its sides grow from every node but D in increasing
	// ID order, each from its least member.
	Receiver int
	// C1 lists the sets M tried, in order, as C1 = C ∩ M, C2 = C \ M.
	C1 []nodeset.Set
	// Views gives V(γ(u)) for a node u of G.
	Views Views
	// Fit returns node u's maximal sets: t must lie inside one of them.
	// Nil means C1's sets for every node.
	Fit  func(u int) []nodeset.Set
	Rule Rule
}

// FromInstance is the RMT condition rule states on in: Definition 3
// (JointView) or Definition 7 (Neighborhood), with 𝒵's maximal sets as
// the C1 candidates and as every node's maximal sets.
func FromInstance(in *instance.Instance, rule Rule) Input {
	return Input{
		G: in.G, Dealer: in.Dealer, Receiver: in.Receiver,
		C1: in.Z.Maximal(), Views: &in.Gamma, Rule: rule,
	}
}

// Witness is a cut C = C1 ∪ C2 with C1 = C ∩ M for one of the C1
// candidates M, and B the side whose boundary C is. core.RMTCut,
// zcpa.ZppCut and broadcast.ZppCut share its shape and convert to and from
// it.
type Witness struct {
	C1, C2 nodeset.Set
	B      nodeset.Set
}

// kernel holds one search's rows. Its per-node table has one entry per
// table index: in a Search the index is the walk's Rank(u) and P_u = N(u)
// is read from the walk; in a Repair or a Verify (no walk) it is u's
// position in the one candidate B, in increasing ID order, and the table
// is built on first use. The walk is passed to the methods that read it,
// not held here: the kernel's contents reach the heap through the Views
// and Fit calls, and a held walk would follow them.
type kernel struct {
	in   Input
	w    int
	nc1  int
	sets []uint64 // C1's rows
	view []uint64 // V(γ(u)) per table index
	part []uint64 // P_u per table index (no walk, Neighborhood only)
	fits []uint64 // every node's Fit rows, when Fit is set
	fit  []int32  // index i's maximal sets are fits rows fit[2i] to fit[2i+1]
	c2   []uint64 // scratch rows
	t    []uint64
	sc   *scratch // where the slab and a Repair's table come from
}

// scratch is the memory an Incremental keeps from one revision's check to
// the next: a Search's walk rows (graph.NewWalkOn), the kernel slab and a
// Repair's per-node table. Each check takes what it needs, sized for its
// own revision and zeroed, so it reads as if freshly allocated; a witness
// is copied out of it (nodeset.FromWords), so nothing a checker keeps
// aliases it.
type scratch struct{ words [numScratch][]uint64 }

// The buffers of a scratch.
const (
	walkWords = iota
	slabWords
	tableWords
	numScratch
)

// take returns n zeroed words: buffer i of sc, grown when it is short, or
// with no scratch (sc nil, as in Search and Repair) a fresh allocation.
func (sc *scratch) take(i, n int) []uint64 {
	if sc == nil {
		return make([]uint64, n)
	}
	if cap(sc.words[i]) < n {
		sc.words[i] = make([]uint64, n)
	}
	b := sc.words[i][:n]
	clear(b)
	return b
}

// init carves the two scratch rows, extra rows for the caller (which it
// returns) and C1's rows from one slab, taken zeroed from sc.
func (k *kernel) init(in Input, w, extra int, sc *scratch) []uint64 {
	slab := sc.take(slabWords, (2+extra+len(in.C1))*w)
	*k = kernel{in: in, w: w, nc1: len(in.C1), sc: sc, c2: slab[:w:w], t: slab[w : 2*w : 2*w], sets: slab[(2+extra)*w:]}
	for i, s := range in.C1 {
		s.CopyTo(k.sets[i*w : (i+1)*w])
	}
	return slab[2*w : (2+extra)*w]
}

// table builds the per-node rows of the nodes of members, in increasing
// ID order, into k.view (allocated here unless the caller carved it).
func (k *kernel) table(members []uint64) {
	w, size := k.w, 0
	for _, x := range members {
		size += bits.OnesCount64(x)
	}
	if k.view == nil {
		n := size
		if k.in.Rule == Neighborhood {
			n *= 2 // no walk to read N(u) from
		}
		k.view = k.sc.take(tableWords, n*w)
		k.view, k.part = k.view[:size*w], k.view[size*w:]
	}
	// Fit rows are counted first so that they take one allocation.
	if k.in.Fit != nil {
		k.fit = make([]int32, 2*size)
		n := 0
		eachMember(members, func(i, u int) {
			k.fit[2*i] = int32(n)
			n += len(k.in.Fit(u))
			k.fit[2*i+1] = int32(n)
		})
		k.fits = make([]uint64, n*w)
	}
	eachMember(members, func(i, u int) {
		k.in.Views.NodesOf(u).CopyTo(k.view[i*w : (i+1)*w])
		if len(k.part) > 0 {
			k.in.G.Neighbors(u).CopyTo(k.part[i*w : (i+1)*w])
		}
		if k.fit != nil {
			lo := int(k.fit[2*i])
			for j, s := range k.in.Fit(u) {
				s.CopyTo(k.fits[(lo+j)*w : (lo+j+1)*w])
			}
		}
	})
}

// eachMember calls fn(i, u) for the members u of row in increasing ID
// order, with i counting them from 0.
func eachMember(row []uint64, fn func(i, u int)) {
	i := 0
	for wi, x := range row {
		for ; x != 0; x &= x - 1 {
			fn(i, wi*64+bits.TrailingZeros64(x))
			i++
		}
	}
}

// Search looks for a witness of in's cut condition, inspecting the sides
// in the order graph.Walk.Sides visits them, start by start. At most
// maxCandidates sides are inspected (0 = unlimited); complete reports
// whether the search space was fully covered. ctx is polled once per
// inspected side and its error aborts the search. Terminals G separates
// admit the empty cut, whose witness is returned without walking.
func Search(ctx context.Context, in Input, maxCandidates int) (witness Witness, found, complete bool, err error) {
	return search(ctx, in, maxCandidates, nil)
}

// search is Search with its walk rows and kernel slab taken from sc.
func search(ctx context.Context, in Input, maxCandidates int, sc *scratch) (witness Witness, found, complete bool, err error) {
	g := in.G
	walk := g.NewWalkOn(sc.take(walkWords, g.WalkWords()))
	var k kernel
	k.view = k.init(in, g.RowWidth(), g.NumNodes(), sc)
	g.Nodes().CopyTo(k.t)
	k.table(k.t)

	inspected := 0
	complete = true
	side := func(b, cut []uint64) bool {
		if err = ctx.Err(); err != nil {
			complete = false
			return false
		}
		if maxCandidates > 0 && inspected >= maxCandidates {
			complete = false
			return false
		}
		inspected++
		if m := k.firstMaximal(&walk, b, cut); m >= 0 {
			witness, found = k.witness(b, cut, m), true
			return false
		}
		return true
	}
	if in.Receiver >= 0 {
		if comp := k.c2; !k.connected(comp, walk.Row) {
			return disconnected(comp), true, true, nil
		}
		walk.Sides(in.Receiver, nodeset.Set{}, in.Dealer, side)
		return witness, found, complete, err
	}
	var banned nodeset.Set // the starts already walked
	g.Nodes().ForEach(func(start int) bool {
		if start != in.Dealer {
			walk.Sides(start, banned, in.Dealer, side)
			banned.MutateAdd(start)
		}
		return !found && complete
	})
	return witness, found, complete, err
}

// Repair re-evaluates an earlier revision's witness of an RMT condition on
// in: the old cut, while it still separates D from R, leaves one candidate
// in the search's own shape — B = comp_R(G − C_old) with the tight cut
// N(B) ⊆ C_old — and one pass over the C1 candidates decides it. It
// reports false when the old cut no longer separates or the candidate
// fails; the caller then falls back to Search. Cost: two BFS passes plus
// one candidate, with rows built for B's members only.
func Repair(in Input, old Witness) (Witness, bool) { return repair(in, old, nil) }

// repair is Repair with its kernel slab and table taken from sc.
func repair(in Input, old Witness, sc *scratch) (Witness, bool) {
	g := in.G
	w := g.RowWidth()
	// B, N(B), C_old and a neighbor row, all empty.
	var k kernel
	rows := k.init(in, w, 4, sc)
	b, cut, blocked, nbr := rows[:w], rows[w:2*w], rows[2*w:3*w], rows[3*w:]
	neighbors := func(v int) []uint64 {
		g.Neighbors(v).CopyTo(nbr)
		return nbr
	}
	if !k.connected(b, neighbors) {
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
	// N(B) ⊆ C_old collects in cut, empty so far, as the BFS goes.
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
	if m := k.firstMaximal(nil, b, cut); m >= 0 {
		return k.witness(b, cut, m), true
	}
	return Witness{}, false
}

// firstMaximal returns the index of the first C1 candidate M for which
// every u ∈ B passes with C2 = cut \ M, or -1. An empty C2 passes
// outright: ∅ belongs to every structure.
func (k *kernel) firstMaximal(wk *graph.Walk, b, cut []uint64) int {
	w := k.w
	for m := 0; m < k.nc1; m++ {
		zm := k.sets[m*w : (m+1)*w]
		empty := true
		for i := range k.c2 {
			k.c2[i] = cut[i] &^ zm[i]
			empty = empty && k.c2[i] == 0
		}
		if empty || k.failing(wk, b) < 0 {
			return m
		}
	}
	return -1
}

// failing returns the first u ∈ B, in ID order, that fails for
// C2 = k.c2, leaving its t in k.t, or -1 when every u passes: t = C2 ∩ P_u
// must lie in V(γ(u)) and inside one of u's maximal sets.
func (k *kernel) failing(wk *graph.Walk, b []uint64) int {
	if k.view == nil {
		k.table(b)
	}
	w := k.w
	i := 0 // u's position in B
	for wi, word := range b {
		for ; word != 0; word &= word - 1 {
			u := wi*64 + bits.TrailingZeros64(word)
			r := i // u's table index
			if wk != nil {
				r = wk.Rank(u)
			}
			i++
			view := k.view[r*w : (r+1)*w]
			p := view
			if k.in.Rule == Neighborhood {
				if wk != nil {
					p = wk.Row(u)
				} else {
					p = k.part[r*w : (r+1)*w]
				}
			}
			empty := true
			for j := range k.t {
				k.t[j] = k.c2[j] & p[j]
				empty = empty && k.t[j] == 0
			}
			// Under JointView t = C2 ∩ V(γ(u)) lies in V(γ(u)) already.
			if !empty && (k.in.Rule == Neighborhood && !subset(k.t, view) || !k.fitsOne(k.t, k.maximal(r))) {
				return u
			}
		}
	}
	return -1
}

// maximal returns the maximal-set rows of table index r.
func (k *kernel) maximal(r int) []uint64 {
	if k.fit == nil {
		return k.sets[:k.nc1*k.w]
	}
	return k.fits[int(k.fit[2*r])*k.w : int(k.fit[2*r+1])*k.w]
}

// fitsOne reports whether t ⊆ M′ for one of the rows in fits.
func (k *kernel) fitsOne(t, fits []uint64) bool {
	for m := 0; m < len(fits); m += k.w {
		if subset(t, fits[m:m+k.w]) {
			return true
		}
	}
	return false
}

// witness materializes (C ∩ M, C \ M, B) for the m-th C1 candidate.
func (k *kernel) witness(b, cut []uint64, m int) Witness {
	zm := k.sets[m*k.w : (m+1)*k.w]
	for i := range cut {
		k.t[i] = cut[i] & zm[i]
		k.c2[i] = cut[i] &^ zm[i]
	}
	return Witness{C1: nodeset.FromWords(k.t), C2: nodeset.FromWords(k.c2), B: nodeset.FromWords(b)}
}

// connected writes comp_R(G) into comp and reports whether it holds the
// dealer; when it does not, the empty cut separates D from R.
func (k *kernel) connected(comp []uint64, row func(v int) []uint64) bool {
	component(comp, k.t, k.in.Receiver, row)
	return has(comp, k.in.Dealer)
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

// Verify checks a claimed witness of an RMT condition on in, independently
// of the search that produced it:
//
//  1. C1 and C2 are disjoint from each other and from {D, R};
//  2. C = C1 ∪ C2 holds nodes of G only and separates D from R, unless G
//     never connected them;
//  3. B is exactly the connected component of R in G − C;
//  4. C1 lies inside one of the C1 candidates (C1 ∈ 𝒵);
//  5. every u ∈ B passes: t = C2 ∩ P_u lies in V(γ(u)) and inside one of
//     u's maximal sets (t ∈ Z_u).
//
// Its errors carry no package prefix; the callers add theirs.
func Verify(in Input, w Witness) error {
	g, d, r := in.G, in.Dealer, in.Receiver
	c := w.C1.Union(w.C2)
	if w.C1.Intersects(w.C2) {
		return fmt.Errorf("C1 %v and C2 %v overlap", w.C1, w.C2)
	}
	if c.Contains(d) || c.Contains(r) {
		return fmt.Errorf("cut %v contains a terminal", c)
	}
	if !c.SubsetOf(g.Nodes()) {
		return fmt.Errorf("cut %v contains non-nodes", c)
	}
	if !g.Separates(c, d, r) && g.Connected(d, r) {
		return fmt.Errorf("%v does not separate %d from %d", c, d, r)
	}
	if comp := g.RemoveNodes(c).ComponentOf(r); !comp.Equal(w.B) {
		return fmt.Errorf("B %v is not the receiver component %v", w.B, comp)
	}
	// Checks 4 and 5 on the kernel's rows; C1, C2 and B are node sets of G
	// by now, so they fit them.
	var k kernel
	rows := k.init(in, g.RowWidth(), 2, nil)
	c1, b := rows[:k.w], rows[k.w:]
	w.C1.CopyTo(c1)
	w.C2.CopyTo(k.c2)
	w.B.CopyTo(b)
	if !k.fitsOne(c1, k.sets[:k.nc1*k.w]) {
		return fmt.Errorf("C1 %v is not admissible", w.C1)
	}
	switch u := k.failing(nil, b); {
	case u < 0:
		return nil
	case in.Rule == Neighborhood:
		return fmt.Errorf("N(%d) ∩ C2 = %v is not in Z_%d", u, nodeset.FromWords(k.t), u)
	default:
		return fmt.Errorf("C2 ∩ V(γ(%d)) = %v is not in Z_%d", u, nodeset.FromWords(k.t), u)
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

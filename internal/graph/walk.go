package graph

import (
	"math/bits"

	"rmt/internal/nodeset"
)

const wordBits = 64

// RowWidth returns W = ⌈(MaxID()+1)/64⌉: the number of 64-bit words a row
// needs to hold any node set of g.
func (g *Graph) RowWidth() int { return (g.MaxID() + wordBits) / wordBits }

// Walk is the word-level connected-set enumeration behind the cut-search
// kernel (internal/cutsearch).
// Node sets are rows of W = RowWidth() words. Per-node tables hold one row
// per node, not per ID: node v's row is number Rank(v), its position among
// g's nodes in increasing ID order, so a graph with sparse IDs costs
// O(|V|·W) words, not O(MaxID·W). A walk keeps the adjacency rows, one row
// for the current set B (shared by every depth: extending B by v sets v's
// bit, backtracking clears it), and per depth of the walk one frame
// holding N(B) and the excluded set. Frames live in chunks that are added,
// doubling in size, as the walk first reaches their depths, so the state
// grows with the depth actually reached, never moves, and nothing is
// allocated per candidate.
//
// The algorithm is the classic fix-and-extend enumeration: each level
// emits its current set B, then extends it by each boundary node v ∉
// excluded in increasing ID order, excluding v for later siblings so no
// set is produced twice. The boundary is maintained incrementally —
// N(B ∪ {v}) = (N(B) ∪ N(v)) \ (B ∪ {v}), since N(B) already excludes B.
//
// A Walk is not safe for concurrent use.
type Walk struct {
	g      *Graph
	w      int
	nodes  []uint64 // V(G)
	before []uint64 // before[i] = number of nodes with ID < 64·i
	adj    []uint64 // row Rank(v) = adj[Rank(v)·w : (Rank(v)+1)·w] holds N(v)
	b      []uint64 // the current set B
	seed   int      // frames in chunk 0
	chunks [32][]uint64
}

// seedFrames caps the frames NewWalk allocates up front. A walk never
// goes deeper than |V| − 1, so smaller graphs get exactly |V| frames.
const seedFrames = 16

// NewWalk returns a walk over g, with g's adjacency rows, copied in g's
// own row order, its rank table and the first frames of the stack in one
// allocation.
func (g *Graph) NewWalk() Walk {
	w, n := g.RowWidth(), g.NumNodes()
	seed := min(max(n, 1), seedFrames)
	rows := make([]uint64, (n+3+2*seed)*w)
	wk := Walk{
		g: g, w: w, seed: seed,
		nodes:  rows[:w:w],
		before: rows[w : 2*w : 2*w],
		b:      rows[2*w : 3*w : 3*w],
		adj:    rows[3*w : (n+3)*w : (n+3)*w],
	}
	wk.chunks[0] = rows[(n+3)*w:]
	g.nodes.CopyTo(wk.nodes)
	r := 0
	for i, x := range wk.nodes {
		wk.before[i] = uint64(r)
		r += bits.OnesCount64(x)
	}
	for r, rw := range g.rows {
		rw.adj.CopyTo(wk.adj[r*w : (r+1)*w])
	}
	return wk
}

// Rank returns v's position among g's nodes in increasing ID order: the
// index of v's row in a per-node table. v must be a node of g.
func (wk *Walk) Rank(v int) int {
	return wk.rank(uint(v)/wordBits, 1<<(uint(v)%wordBits))
}

// rank is Rank for the node whose bit is bit in word i.
func (wk *Walk) rank(i uint, bit uint64) int {
	return int(wk.before[i]) + bits.OnesCount64(wk.nodes[i]&(bit-1))
}

// Row returns N(v) as a row; v must be a node of g. The caller must not
// modify it.
func (wk *Walk) Row(v int) []uint64 {
	r := wk.Rank(v)
	return wk.adj[r*wk.w : (r+1)*wk.w]
}

// Sides calls fn(B, N(B)) for every connected node set B with start ∈ B
// that avoids banned and skip and whose boundary misses skip, once per
// set, until fn returns false. A set holding a neighbor of skip has skip
// on its boundary, and so has every superset that avoids skip: so the walk
// returns at once when start is a neighbor of skip and never adds one to
// B. Skip then never reaches a boundary, and every set the walk steps into
// is passed to fn. A skip that is not a node (-1, say) constrains nothing,
// and nothing is enumerated when start is not a node, is banned or is
// skip.
//
// The receiver sides of a D–R cut C = N(B) that excludes the dealer are
// Sides(R, ∅, D): connected sets holding R, avoiding D ∪ N(D), which is
// exactly the sets whose boundary misses D. The rows passed to fn are the
// walk's own state: fn must neither modify nor retain them.
func (wk *Walk) Sides(start int, banned nodeset.Set, skip int, fn func(b, bnd []uint64) bool) {
	if !wk.g.HasNode(start) || banned.Contains(start) || start == skip {
		return
	}
	bnd, excl := wk.frame(0)
	banned.CopyTo(excl)
	if wk.g.HasNode(skip) {
		nskip := wk.Row(skip)
		if nskip[start/wordBits]&(1<<uint(start%wordBits)) != 0 {
			return
		}
		for i, x := range nskip {
			excl[i] |= x
		}
	}
	// Depth 0 is B = {start}; graphs have no self-loops, so N(start) is
	// already a valid boundary.
	clear(wk.b)
	wk.b[start/wordBits] |= 1 << uint(start%wordBits)
	copy(bnd, wk.Row(start))
	excl[start/wordBits] |= 1 << uint(start%wordBits)
	wk.rec(0, fn)
}

// rec passes depth d's set to fn and recurses into each extension. It
// reports false once fn has stopped the walk.
func (wk *Walk) rec(d int, fn func(b, bnd []uint64) bool) bool {
	bnd, excl := wk.frame(d)
	if !fn(wk.b, bnd) {
		return false
	}
	var nbnd, nexcl []uint64
	for i := range bnd {
		for cand := bnd[i] &^ excl[i]; cand != 0; cand &= cand - 1 {
			if nbnd == nil {
				nbnd, nexcl = wk.frame(d + 1)
			}
			bit := cand & -cand
			r := wk.rank(uint(i), bit)
			adj := wk.adj[r*wk.w : (r+1)*wk.w]
			wk.b[i] |= bit
			copy(nexcl, excl)
			for j := range nbnd {
				nbnd[j] = (bnd[j] | adj[j]) &^ wk.b[j]
			}
			if !wk.rec(d+1, fn) {
				return false
			}
			wk.b[i] &^= bit
			excl[i] |= bit
		}
	}
	return true
}

// frame returns depth d's N(B) and excluded rows, adding the chunk that
// holds them on first use. Chunk 0 holds frames [0, seed); chunk k ≥ 1
// holds [seed·2^(k−1), seed·2^k).
func (wk *Walk) frame(d int) (bnd, excl []uint64) {
	k, off, size := 0, d, wk.seed
	if d >= wk.seed {
		k = bits.Len(uint(d / wk.seed))
		size = wk.seed << (k - 1)
		off = d - size
	}
	if wk.chunks[k] == nil {
		wk.chunks[k] = make([]uint64, 2*size*wk.w)
	}
	w := wk.w
	f := wk.chunks[k][2*off*w : 2*(off+1)*w]
	return f[:w:w], f[w:]
}

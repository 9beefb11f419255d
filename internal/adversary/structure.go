// Package adversary implements general (Hirt–Maurer) adversary structures
// and the paper's joint-view operation ⊕ on restricted structures.
//
// An adversary structure Z is a monotone family of subsets of the player
// set: if Z ∈ 𝒵 and Z' ⊆ Z then Z' ∈ 𝒵. A Structure stores only the maximal
// sets of the family (an antichain); monotonicity is implicit, so membership
// is "subset of some maximal set". Every Structure contains the empty set —
// the adversary may always corrupt nobody — so the antichain is never empty
// (the weakest structure is {∅}, represented by the single maximal set ∅).
//
// A Restricted value pairs a structure with the node set it is restricted
// to. Restricted structures are what players exchange: node v's local
// knowledge is Z_v = Z^{V(γ(v))}, a structure over the nodes of its view.
// The ⊕ operation (Definition 2 of the paper) combines two restricted
// structures into the maximal structure over the union of their domains
// that is consistent with both — the joint view.
package adversary

import (
	"math/bits"
	"slices"

	"rmt/internal/nodeset"
)

// Structure is a monotone family of node sets, stored as the antichain of
// its maximal sets in canonical order. The zero value behaves as Trivial()
// — the family {∅} — so an unset Structure field means "no corruption"
// ("no listening" for listening structures), never an invalid family.
// Structures are immutable.
type Structure struct {
	maximal []nodeset.Set
}

// trivialAntichain is the canonical antichain of Trivial(), shared by every
// normalized zero value. Callers only ever read antichains, so sharing is
// safe.
var trivialAntichain = []nodeset.Set{nodeset.Empty()}

// antichain returns the maximal sets, normalizing the zero value to {∅}.
// A zero Structure{} (an unset Options or request field) used to violate
// the package invariant that every family contains ∅: Contains(∅) returned
// false and Maximal() was empty, so the ground-case predicates — exactly
// the ones the secrecy conditions exercise with L = {∅} — drew vacuous
// conclusions. Every method goes through this accessor instead of touching
// z.maximal directly.
func (z Structure) antichain() []nodeset.Set {
	if len(z.maximal) == 0 {
		return trivialAntichain
	}
	return z.maximal
}

// Trivial returns the structure {∅}: the adversary can corrupt no one.
func Trivial() Structure {
	return Structure{maximal: []nodeset.Set{nodeset.Empty()}}
}

// FromSets returns the monotone closure of the given sets (plus ∅).
// Duplicates and dominated sets are dropped; the result is canonical.
func FromSets(sets ...nodeset.Set) Structure {
	return Structure{maximal: reduceToAntichain(sets)}
}

// FromSlices is FromSets with each set given as a slice of node IDs.
func FromSlices(sets ...[]int) Structure {
	ns := make([]nodeset.Set, len(sets))
	for i, s := range sets {
		ns[i] = nodeset.FromSlice(s)
	}
	return FromSets(ns...)
}

// reduceToAntichain sorts, dedups and removes dominated sets. An empty
// input yields the antichain {∅} so the family always contains ∅.
func reduceToAntichain(sets []nodeset.Set) []nodeset.Set {
	cp := make([]nodeset.Set, len(sets))
	copy(cp, sets)
	return reduceToAntichainOwned(cp)
}

// reduceToAntichainOwned is reduceToAntichain taking ownership of its
// argument: the slice is sorted and filtered in place, so callers must pass
// a slice they will not use again. It sits under Union, Restrict and every
// ⊕, so the domination scan is allocation-free: Compare orders by
// cardinality first, hence after the descending sort duplicates are
// adjacent and only the strictly-larger prefix of kept sets can dominate a
// distinct candidate.
func reduceToAntichainOwned(sets []nodeset.Set) []nodeset.Set {
	if len(sets) == 0 {
		return []nodeset.Set{nodeset.Empty()}
	}
	// Compare is a total order that ties only equal sets, so any sort gives
	// the same sequence.
	slices.SortFunc(sets, func(a, b nodeset.Set) int { return b.Compare(a) })
	max := sets[:0]
	for _, s := range sets {
		if len(max) > 0 && s.Equal(max[len(max)-1]) {
			continue
		}
		dominated := false
		sLen := s.Len()
		for _, m := range max {
			if m.Len() <= sLen {
				// Kept sets are in descending order; once they are no larger
				// than s, none of the remaining ones can strictly contain it.
				break
			}
			if s.SubsetOf(m) {
				dominated = true
				break
			}
		}
		if !dominated {
			max = append(max, s)
		}
	}
	// The kept sets are strictly descending; reverse in place for the
	// canonical ascending order instead of sorting again.
	for i, j := 0, len(max)-1; i < j; i, j = i+1, j-1 {
		max[i], max[j] = max[j], max[i]
	}
	return max
}

// Contains reports whether the set is a member of the family, i.e. a subset
// of some maximal set. The empty set is always a member.
func (z Structure) Contains(s nodeset.Set) bool {
	for _, m := range z.antichain() {
		if s.SubsetOf(m) {
			return true
		}
	}
	return false
}

// Maximal returns the maximal sets in canonical order. The caller must not
// modify the returned slice.
func (z Structure) Maximal() []nodeset.Set { return z.antichain() }

// NumMaximal returns the number of maximal sets.
func (z Structure) NumMaximal() int { return len(z.antichain()) }

// Ground returns the union of all maximal sets: every node that appears in
// some corruption set.
func (z Structure) Ground() nodeset.Set {
	var g nodeset.Set
	for _, m := range z.antichain() {
		g.MutateUnion(m)
	}
	return g
}

// Equal reports whether two structures are the same family.
func (z Structure) Equal(other Structure) bool {
	zm, om := z.antichain(), other.antichain()
	if len(zm) != len(om) {
		return false
	}
	for i, m := range zm {
		if !m.Equal(om[i]) {
			return false
		}
	}
	return true
}

// SubfamilyOf reports whether every member of z is a member of other.
func (z Structure) SubfamilyOf(other Structure) bool {
	for _, m := range z.antichain() {
		if !other.Contains(m) {
			return false
		}
	}
	return true
}

// Union returns the family union z ∪ other (monotone closure of the merged
// antichains). Used e.g. in the Theorem 8 lower-bound construction, where
// the adversary pretends the structure is 𝒵' = 𝒵|_B ∪ {C2}.
func (z Structure) Union(other Structure) Structure {
	zm, om := z.antichain(), other.antichain()
	merged := make([]nodeset.Set, 0, len(zm)+len(om))
	merged = append(merged, zm...)
	merged = append(merged, om...)
	return Structure{maximal: reduceToAntichainOwned(merged)}
}

// WithSet returns z ∪ {s and all its subsets}.
func (z Structure) WithSet(s nodeset.Set) Structure {
	return z.Union(FromSets(s))
}

// Restrict returns the restriction Z^A = { Z ∩ A : Z ∈ 𝒵 } as a structure.
// When every maximal set lies inside A the restriction is z itself and
// shares its antichain. Otherwise only the maximal sets that meet A are
// intersected: a set disjoint from A contributes ∅, which any non-empty
// intersection dominates, and the reduction still yields {∅} when no set
// meets A. The result holds exactly the sets that meet A; an Index finds
// them without a scan of every maximal set.
func (z Structure) Restrict(a nodeset.Set) Structure {
	zm := z.antichain()
	inside := true
	for _, m := range zm {
		if !m.SubsetOf(a) {
			inside = false
			break
		}
	}
	if inside {
		return Structure{maximal: zm}
	}
	n := 0
	for _, m := range zm {
		if m.Intersects(a) {
			n++
		}
	}
	meet := make([]nodeset.Set, 0, n)
	for _, m := range zm {
		if m.Intersects(a) {
			meet = append(meet, m)
		}
	}
	return restrictMeeting(meet, a)
}

// restrictMeeting returns the restriction to a of the structure whose
// maximal sets meeting a are meet, which it owns: each set becomes its
// intersection with a — the set itself, shared, when it lies inside a —
// and the antichain is reduced in place.
func restrictMeeting(meet []nodeset.Set, a nodeset.Set) Structure {
	if len(meet) == 0 {
		return Structure{}
	}
	for i, m := range meet {
		if !m.SubsetOf(a) {
			meet[i] = m.Intersect(a)
		}
	}
	return Structure{maximal: reduceToAntichainOwned(meet)}
}

// RestrictTo returns the restriction as a Restricted value carrying its
// domain, ready for the ⊕ operation.
func (z Structure) RestrictTo(a nodeset.Set) Restricted {
	return Restricted{Domain: a, Structure: z.Restrict(a)}
}

// Index maps every node to the maximal sets of a structure that contain
// it, so a restriction to a small domain — a player's view — visits only
// the sets that meet it instead of scanning all of 𝒵. An Index reuses a
// scratch across calls, so it is not safe for concurrent use.
type Index struct {
	z      Structure
	ground nodeset.Set
	nodes  []int32 // the ground's nodes, in increasing ID order
	start  []int32 // node nodes[i] lies in sets[start[i]:start[i+1]]
	sets   []int32 // positions in z.Maximal()
	mark   []uint32
	epoch  uint32
	meet   []int32
}

// NewIndex builds the index of z in O(Σ|M|) over its maximal sets M.
func NewIndex(z Structure) *Index {
	zm := z.antichain()
	ix := &Index{z: z, ground: z.Ground(), mark: make([]uint32, len(zm))}
	ix.nodes = make([]int32, 0, ix.ground.Len())
	ix.ground.ForEach(func(v int) bool {
		ix.nodes = append(ix.nodes, int32(v))
		return true
	})
	ix.start = make([]int32, len(ix.nodes)+1)
	for _, m := range zm {
		m.ForEach(func(v int) bool {
			ix.start[ix.rank(v)+1]++
			return true
		})
	}
	for i := range ix.nodes {
		ix.start[i+1] += ix.start[i]
	}
	ix.sets = make([]int32, ix.start[len(ix.nodes)])
	fill := slices.Clone(ix.start[:len(ix.nodes)])
	for j, m := range zm {
		m.ForEach(func(v int) bool {
			r := ix.rank(v)
			ix.sets[fill[r]] = int32(j)
			fill[r]++
			return true
		})
	}
	return ix
}

// rank returns the position of the ground node v in ix.nodes.
func (ix *Index) rank(v int) int {
	if uint(v) < uint(len(ix.nodes)) && int(ix.nodes[v]) == v {
		return v
	}
	i, _ := slices.BinarySearch(ix.nodes, int32(v))
	return i
}

// RestrictTo returns z.RestrictTo(a), reading only the maximal sets that
// contain a node of a: Σ over a's nodes of the sets each lies in, rather
// than every maximal set. Equal inputs give equal results to
// Structure.RestrictTo.
func (ix *Index) RestrictTo(a nodeset.Set) Restricted {
	if ix.ground.SubsetOf(a) {
		return Restricted{Domain: a, Structure: Structure{maximal: ix.z.antichain()}}
	}
	if ix.epoch++; ix.epoch == 0 {
		clear(ix.mark)
		ix.epoch = 1
	}
	ix.meet = ix.meet[:0]
	for w := 0; w < min(a.Width(), ix.ground.Width()); w++ {
		for x := a.Word(w) & ix.ground.Word(w); x != 0; x &= x - 1 {
			r := ix.rank(w*64 + bits.TrailingZeros64(x))
			for _, j := range ix.sets[ix.start[r]:ix.start[r+1]] {
				if ix.mark[j] != ix.epoch {
					ix.mark[j] = ix.epoch
					ix.meet = append(ix.meet, j)
				}
			}
		}
	}
	zm := ix.z.antichain()
	meet := make([]nodeset.Set, len(ix.meet))
	for i, j := range ix.meet {
		meet[i] = zm[j]
	}
	return Restricted{Domain: a, Structure: restrictMeeting(meet, a)}
}

// Members enumerates every member of the family exactly once, in an
// unspecified order, stopping early if fn returns false. It is exponential
// in the maximal-set sizes and intended for tests and tiny instances; it
// panics if any maximal set has more than 30 members.
func (z Structure) Members(fn func(s nodeset.Set) bool) {
	seen := map[string]bool{}
	for _, m := range z.antichain() {
		stop := false
		m.Subsets(func(sub nodeset.Set) bool {
			k := sub.Key()
			if seen[k] {
				return true
			}
			seen[k] = true
			if !fn(sub) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// NumMembers returns the total number of member sets (exponential walk;
// tests/tiny instances only).
func (z Structure) NumMembers() int {
	n := 0
	z.Members(func(nodeset.Set) bool { n++; return true })
	return n
}

// String renders the antichain, e.g. "⟨{1}, {2, 3}⟩".
func (z Structure) String() string { return string(z.AppendString(nil)) }

// AppendString appends the String rendering of z to dst and returns the
// extended slice.
func (z Structure) AppendString(dst []byte) []byte {
	dst = append(dst, "⟨"...)
	for i, m := range z.antichain() {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = m.AppendString(dst)
	}
	return append(dst, "⟩"...)
}

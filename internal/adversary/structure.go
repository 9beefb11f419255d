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
	"sort"

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
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) > 0 })
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
// meets A.
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
	restricted := make([]nodeset.Set, 0, len(zm))
	for _, m := range zm {
		if m.Intersects(a) {
			restricted = append(restricted, m.Intersect(a))
		}
	}
	return Structure{maximal: reduceToAntichainOwned(restricted)}
}

// RestrictTo returns the restriction as a Restricted value carrying its
// domain, ready for the ⊕ operation.
func (z Structure) RestrictTo(a nodeset.Set) Restricted {
	return Restricted{Domain: a, Structure: z.Restrict(a)}
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

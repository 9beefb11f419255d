package adversary

import (
	"fmt"

	"rmt/internal/nodeset"
)

// Restricted is an adversary structure restricted to a domain of nodes:
// the pair (𝓔^A, A) from the paper's semilattice (Theorem 15). Player v's
// local knowledge Z_v is Restricted{Domain: V(γ(v)), Structure: Z^{V(γ(v))}}.
//
// Invariant: every maximal set of Structure is a subset of Domain.
type Restricted struct {
	Domain    nodeset.Set
	Structure Structure
}

// NewRestricted validates and builds a Restricted value.
func NewRestricted(domain nodeset.Set, z Structure) (Restricted, error) {
	for _, m := range z.Maximal() {
		if !m.SubsetOf(domain) {
			return Restricted{}, fmt.Errorf("adversary: maximal set %v outside domain %v", m, domain)
		}
	}
	return Restricted{Domain: domain, Structure: z}, nil
}

// Identity returns the ⊕-identity: the structure {∅} over the empty domain.
// Join(Identity(), r) == r for every r.
func Identity() Restricted {
	return Restricted{Domain: nodeset.Empty(), Structure: Trivial()}
}

// Contains reports membership in the restricted family.
func (r Restricted) Contains(s nodeset.Set) bool { return r.Structure.Contains(s) }

// Equal reports whether two restricted structures have the same domain and
// family.
func (r Restricted) Equal(other Restricted) bool {
	return r.Domain.Equal(other.Domain) && r.Structure.Equal(other.Structure)
}

// String renders the restricted structure with its domain, e.g.
// "⟨{1}⟩ on {0, 1, 2}".
func (r Restricted) String() string { return string(r.AppendString(nil)) }

// AppendString appends the String rendering of r to dst and returns the
// extended slice.
func (r Restricted) AppendString(dst []byte) []byte {
	dst = r.Structure.AppendString(dst)
	dst = append(dst, " on "...)
	return r.Domain.AppendString(dst)
}

// Join computes the paper's ⊕ operation (Definition 2):
//
//	𝓔^A ⊕ 𝓕^B = { Z1 ∪ Z2 | Z1 ∈ 𝓔^A, Z2 ∈ 𝓕^B, Z1 ∩ B = Z2 ∩ A }
//
// over the domain A ∪ B. The result is the maximal structure on A ∪ B that
// restricts to 𝓔^A on A and is consistent with 𝓕^B on B (Theorem 1): the
// worst-case joint adversary knowledge of two players.
//
// Implementation: on antichains, it suffices to combine maximal sets. For
// maximal M1 ∈ 𝓔^A, M2 ∈ 𝓕^B, the ⊆-largest admissible union with Z1 ⊆ M1,
// Z2 ⊆ M2 is obtained by agreeing on S = M1 ∩ M2 (any element of Z1 inside
// B must also lie in Z2 ⊆ M2 and vice versa), giving the candidate
// (M1 \ B) ∪ (M2 \ A) ∪ (M1 ∩ M2). Every member of the ⊕-family is a subset
// of such a candidate, so the result's maximal sets are the maximal
// candidates. This is O(|𝓔|·|𝓕|) set operations instead of exponential
// member enumeration; JoinBruteForce in the tests cross-checks it.
func Join(e, f Restricted) Restricted {
	a, b := e.Domain, f.Domain
	me, mf := e.Structure.Maximal(), f.Structure.Maximal()
	candidates := make([]nodeset.Set, 0, len(me)*len(mf))
	// The candidate (M1\B) ∪ (M2\A) ∪ (M1∩M2) equals M1\(B\M2) ∪ (M2\A),
	// since M1\(B\M2) = (M1\B) ∪ (M1∩M2). Hoisting the per-M2 pieces out of
	// the pair loop leaves two set operations (one allocation) per pair.
	m2NotA := make([]nodeset.Set, len(mf))
	bNotM2 := make([]nodeset.Set, len(mf))
	for j, m2 := range mf {
		m2NotA[j] = m2.Minus(a)
		bNotM2[j] = b.Minus(m2)
	}
	for _, m1 := range me {
		for j := range mf {
			cand := m1.Minus(bNotM2[j])
			cand.MutateUnion(m2NotA[j])
			candidates = append(candidates, cand)
		}
	}
	return Restricted{
		Domain:    a.Union(b),
		Structure: Structure{maximal: reduceToAntichainOwned(candidates)},
	}
}

// JoinAll folds ⊕ over the given restricted structures; the fold of nothing
// is Identity(). Since ⊕ is associative and commutative (Theorems 11, 13)
// the order does not matter.
func JoinAll(rs ...Restricted) Restricted {
	acc := Identity()
	for _, r := range rs {
		acc = Join(acc, r)
	}
	return acc
}

// LocalKnowledge maps each node to its restricted local structure Z_v.
type LocalKnowledge map[int]Restricted

// JointOf computes Z_B = ⊕_{v ∈ B} Z_v for a node set B. Nodes of B without
// an entry in the map contribute the identity (no knowledge).
func (lk LocalKnowledge) JointOf(b nodeset.Set) Restricted {
	acc := Identity()
	b.ForEach(func(v int) bool {
		if r, ok := lk[v]; ok {
			acc = Join(acc, r)
		}
		return true
	})
	return acc
}

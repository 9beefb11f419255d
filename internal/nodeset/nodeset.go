// Package nodeset provides a compact bitset representation for sets of node
// identifiers. It is the substrate under every graph, adversary-structure and
// view operation in this repository: adversary structures are antichains of
// Sets, graph separators are Sets, and the joint-view operation is a loop of
// Set algebra.
//
// Node identifiers are small non-negative integers (dense IDs assigned by
// internal/graph). A Set is an immutable-by-convention value: all methods
// with set results allocate a fresh Set and never mutate their receiver,
// except those whose names start with "Mutate" which are provided for hot
// loops. Sets compare equal with Equal, hash with Key, and order canonically
// with Compare, which makes them usable as map keys (via Key) and sortable.
package nodeset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of non-negative node IDs backed by a []uint64 bitset.
// The zero value is the empty set and is ready to use.
//
// Invariant: the last word, if any, is non-zero (no trailing zero words).
// All constructors and operations maintain this normal form so that Equal
// and Key can operate word-wise.
type Set struct {
	words []uint64
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Of returns the set containing exactly the given IDs.
func Of(ids ...int) Set {
	var s Set
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// FromSlice returns the set containing exactly the IDs in the slice.
func FromSlice(ids []int) Set { return Of(ids...) }

// Range returns the set {lo, lo+1, ..., hi-1}.
func Range(lo, hi int) Set {
	if lo < 0 {
		panic("nodeset: negative ID in Range")
	}
	if hi <= lo {
		return Set{}
	}
	words := make([]uint64, (hi+wordBits-1)/wordBits)
	for i := lo; i < hi; i++ {
		words[i/wordBits] |= 1 << uint(i%wordBits)
	}
	return normalize(words)
}

// Universe returns the set {0, 1, ..., n-1}.
func Universe(n int) Set { return Range(0, n) }

func normalize(words []uint64) Set {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Set{}
	}
	return Set{words: words[:n]}
}

// clone returns a copy of s's words with capacity for at least n words.
func (s Set) clone(n int) []uint64 {
	if n < len(s.words) {
		n = len(s.words)
	}
	words := make([]uint64, n)
	copy(words, s.words)
	return words
}

// Contains reports whether id is a member of s.
func (s Set) Contains(id int) bool {
	if id < 0 {
		return false
	}
	w := id / wordBits
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<uint(id%wordBits)) != 0
}

// Add returns s ∪ {id}.
func (s Set) Add(id int) Set {
	if id < 0 {
		panic("nodeset: negative ID")
	}
	w := id / wordBits
	words := s.clone(w + 1)
	words[w] |= 1 << uint(id%wordBits)
	return Set{words: words}
}

// Remove returns s \ {id}.
func (s Set) Remove(id int) Set {
	if !s.Contains(id) {
		return s
	}
	words := s.clone(len(s.words))
	words[id/wordBits] &^= 1 << uint(id%wordBits)
	return normalize(words)
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s.words) < len(t.words) {
		s, t = t, s
	}
	words := s.clone(len(s.words))
	for i, w := range t.words {
		words[i] |= w
	}
	return Set{words: words}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	words := make([]uint64, n)
	for i := 0; i < n; i++ {
		words[i] = s.words[i] & t.words[i]
	}
	return normalize(words)
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	words := s.clone(len(s.words))
	n := len(t.words)
	if len(words) < n {
		n = len(words)
	}
	for i := 0; i < n; i++ {
		words[i] &^= t.words[i]
	}
	return normalize(words)
}

// trim re-establishes the no-trailing-zero-words invariant in place.
func (s *Set) trim() {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	s.words = s.words[:n]
}

// MutateAdd sets s to s ∪ {id} in place. Like all Mutate methods it must
// only be called on a set the caller exclusively owns (e.g. freshly
// returned by a non-mutating operation): Sets copied by assignment share
// their backing words.
func (s *Set) MutateAdd(id int) {
	if id < 0 {
		panic("nodeset: negative ID")
	}
	w := id / wordBits
	if w >= len(s.words) {
		if w < cap(s.words) {
			// Reuse spare capacity (scratch sets cleared with MutateClear or
			// shrunk by trim leave stale words behind the length).
			old := len(s.words)
			s.words = s.words[:w+1]
			for i := old; i <= w; i++ {
				s.words[i] = 0
			}
		} else {
			words := make([]uint64, w+1)
			copy(words, s.words)
			s.words = words
		}
	}
	s.words[w] |= 1 << uint(id%wordBits)
}

// MutateClear empties s in place, retaining the backing capacity so the set
// can be refilled with MutateAdd/MutateUnion without reallocating. For
// exclusively owned scratch sets only, like every Mutate method.
func (s *Set) MutateClear() {
	s.words = s.words[:0]
}

// MutateRemove sets s to s \ {id} in place.
func (s *Set) MutateRemove(id int) {
	if !s.Contains(id) {
		return
	}
	s.words[id/wordBits] &^= 1 << uint(id%wordBits)
	s.trim()
}

// MutateUnion sets s to s ∪ t in place. t is never retained or modified:
// growing allocates a fresh word slice rather than aliasing t.
func (s *Set) MutateUnion(t Set) {
	if len(t.words) > len(s.words) {
		words := make([]uint64, len(t.words))
		copy(words, s.words)
		s.words = words
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// MutateMinus sets s to s \ t in place.
func (s *Set) MutateMinus(t Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
	s.trim()
}

// SymmetricDiff returns (s \ t) ∪ (t \ s).
func (s Set) SymmetricDiff(t Set) Set {
	if len(s.words) < len(t.words) {
		s, t = t, s
	}
	words := s.clone(len(s.words))
	for i, w := range t.words {
		words[i] ^= w
	}
	return normalize(words)
}

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return len(s.words) == 0 }

// Len returns the number of members of s.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether s and t have exactly the same members.
func (s Set) Equal(t Set) bool {
	if len(s.words) != len(t.words) {
		return false
	}
	for i, w := range s.words {
		if t.words[i] != w {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of t.
func (s Set) SubsetOf(t Set) bool {
	if len(s.words) > len(t.words) {
		return false
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Disjoint reports whether s ∩ t is empty.
func (s Set) Disjoint(t Set) bool { return !s.Intersects(t) }

// Min returns the smallest member of s, or -1 if s is empty.
func (s Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest member of s, or -1 if s is empty.
func (s Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Members returns the members of s in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// ForEach calls fn on each member in increasing order. Iteration stops early
// if fn returns false.
func (s Set) ForEach(fn func(id int) bool) {
	for i, w := range s.words {
		for w != 0 {
			id := i*wordBits + bits.TrailingZeros64(w)
			if !fn(id) {
				return
			}
			w &= w - 1
		}
	}
}

// Compare orders sets first by cardinality, then lexicographically by their
// sorted member lists. It returns -1, 0, or +1. The ordering is total and is
// used to canonicalize antichains.
func (s Set) Compare(t Set) int {
	if a, b := s.Len(), t.Len(); a != b {
		if a < b {
			return -1
		}
		return 1
	}
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			// The set whose lowest differing bit is set has the smaller
			// minimum differing element, hence sorts first.
			diff := a ^ b
			low := diff & -diff
			if a&low != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Key returns a string that uniquely identifies the membership of s, for use
// as a map key. It is not human readable; use String for display.
func (s Set) Key() string {
	if len(s.words) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> (8 * i)))
		}
	}
	return b.String()
}

// AppendKey appends the Key bytes of s to dst and returns the extended
// slice. It is the allocation-free form of Key for callers assembling
// compound map keys in a reused buffer.
func (s Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(w>>(8*i)))
		}
	}
	return dst
}

// String renders s as "{a, b, c}" with members in increasing order.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(id))
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Words returns a copy of the underlying bitset words (normal form).
func (s Set) Words() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// CopyTo writes s into dst as a fixed-width row of words: the words of s,
// then zeros to the end of dst. Members at or beyond 64·len(dst) are
// dropped, so word-level kernels size their rows to cover every ID they
// use. It allocates nothing; FromWords is the way back.
func (s Set) CopyTo(dst []uint64) {
	n := copy(dst, s.words)
	clear(dst[n:])
}

// FromWords builds a Set from raw bitset words.
func FromWords(words []uint64) Set {
	cp := make([]uint64, len(words))
	copy(cp, words)
	return normalize(cp)
}

// Subsets calls fn on every subset of s, including the empty set and s
// itself, in an unspecified order. Iteration stops early if fn returns
// false. It panics if s has more than 30 members, as a guard against
// accidental exponential blowups.
func (s Set) Subsets(fn func(sub Set) bool) {
	members := s.Members()
	if len(members) > 30 {
		panic("nodeset: Subsets on a set with more than 30 members")
	}
	n := uint(len(members))
	for mask := uint64(0); mask < 1<<n; mask++ {
		var sub Set
		for i := uint(0); i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = sub.Add(members[i])
			}
		}
		if !fn(sub) {
			return
		}
	}
}

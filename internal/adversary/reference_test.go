package adversary

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmt/internal/nodeset"
)

// refRestrict is Restrict by intersecting every maximal set with A and
// reducing, the form the dead-set skip replaced.
func refRestrict(z Structure, a nodeset.Set) Structure {
	zm := z.antichain()
	restricted := make([]nodeset.Set, len(zm))
	for i, m := range zm {
		restricted[i] = m.Intersect(a)
	}
	return Structure{maximal: reduceToAntichainOwned(restricted)}
}

// refRestrictScan is Restrict as it scanned every maximal set of z for
// each domain, in a slice reserved for all of them: the z itself when every
// set lies inside A, else the intersections of the sets that meet A.
func refRestrictScan(z Structure, a nodeset.Set) Structure {
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

// refSetString, refStructureString and refRestrictedString are the
// Builder- and Sprintf-based renderers AppendString replaced.
func refSetString(s nodeset.Set) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

func refStructureString(z Structure) string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, m := range z.antichain() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(refSetString(m))
	}
	b.WriteString("⟩")
	return b.String()
}

func refRestrictedString(r Restricted) string {
	return refStructureString(r.Structure) + " on " + refSetString(r.Domain)
}

// randomSpreadSubset draws a subset of [0, span) with members kept with
// probability p; spans past 64 give multi-word sets.
func randomSpreadSubset(r *rand.Rand, span int, p float64) nodeset.Set {
	s := nodeset.Empty()
	for v := 0; v < span; v++ {
		if r.Float64() < p {
			s = s.Add(v)
		}
	}
	return s
}

// TestRestrictMatchesReference: over seeded random structures (the zero
// value, the trivial structure, and random antichains over dense and
// multi-word universes) and random domains A (empty, disjoint, partial,
// covering), Restrict and one Index reused across the trial's domains
// equal the intersect-everything and scan-every-set references, and the
// restricted value renders exactly as the reference renderers do.
func TestRestrictMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		span := 4 + r.Intn(12)
		if trial%2 == 1 {
			span = 64 + r.Intn(140)
		}
		var z Structure
		switch trial % 9 {
		case 0: // the zero value
		case 1:
			z = Trivial()
		default:
			z = Random(r, randomSpreadSubset(r, span, 0.7), 1+r.Intn(6), 0.1+0.4*r.Float64())
		}
		var a nodeset.Set
		switch r.Intn(5) {
		case 0: // empty domain
		case 1:
			a = z.Ground().Union(randomSpreadSubset(r, span, 0.2))
		case 2:
			a = randomSpreadSubset(r, span+70, 0.1).Minus(z.Ground())
		default:
			a = randomSpreadSubset(r, span, 0.2+0.6*r.Float64())
		}
		got, want := z.Restrict(a), refRestrict(z, a)
		if !got.Equal(want) || !got.Equal(refRestrictScan(z, a)) {
			t.Fatalf("trial %d: %v restricted to %v = %v, reference %v", trial, z, a, got, want)
		}
		ix := NewIndex(z)
		for _, d := range []nodeset.Set{a, randomSpreadSubset(r, span, 0.3), z.Ground(), nodeset.Empty(), a} {
			if got := ix.RestrictTo(d); !got.Equal(Restricted{Domain: d, Structure: refRestrict(z, d)}) {
				t.Fatalf("trial %d: indexed %v restricted to %v = %v, reference %v", trial, z, d, got, refRestrict(z, d))
			}
		}
		rz := z.RestrictTo(a)
		if got, want := rz.String(), refRestrictedString(rz); got != want {
			t.Fatalf("trial %d: String %q, reference %q", trial, got, want)
		}
		if got, want := z.String(), refStructureString(z); got != want {
			t.Fatalf("trial %d: structure String %q, reference %q", trial, got, want)
		}
	}
}

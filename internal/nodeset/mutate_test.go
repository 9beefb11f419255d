package nodeset

import (
	"math/rand"
	"testing"
)

// copyOf returns an exclusively-owned copy safe to hand to Mutate* methods.
func copyOf(s Set) Set {
	var c Set
	c.MutateUnion(s)
	return c
}

// TestMutateOpsMatchPureOps: each in-place operation must produce a set that
// is Equal to — and shares the canonical Key of — its allocating counterpart,
// across random operand pairs of mismatched word lengths.
func TestMutateOpsMatchPureOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randomSet(r, 1+r.Intn(130), 0.5) // spans 1–3 words
		b := randomSet(r, 1+r.Intn(130), 0.5)
		v := r.Intn(130)

		m := copyOf(a)
		m.MutateAdd(v)
		if want := a.Add(v); !m.Equal(want) || m.Key() != want.Key() {
			t.Fatalf("MutateAdd(%d): %v (key %q), want %v (key %q)", v, m, m.Key(), want, want.Key())
		}

		m = copyOf(a)
		m.MutateRemove(v)
		if want := a.Remove(v); !m.Equal(want) || m.Key() != want.Key() {
			t.Fatalf("MutateRemove(%d): %v (key %q), want %v (key %q)", v, m, m.Key(), want, want.Key())
		}

		m = copyOf(a)
		m.MutateUnion(b)
		if want := a.Union(b); !m.Equal(want) || m.Key() != want.Key() {
			t.Fatalf("MutateUnion: %v (key %q), want %v (key %q)", m, m.Key(), want, want.Key())
		}

		m = copyOf(a)
		m.MutateMinus(b)
		if want := a.Minus(b); !m.Equal(want) || m.Key() != want.Key() {
			t.Fatalf("MutateMinus: %v (key %q), want %v (key %q)", m, m.Key(), want, want.Key())
		}
	}
}

// TestMutateUnionNeverAliasesArgument: after s.MutateUnion(t), mutating s
// further must not disturb t — the grow path must allocate fresh words
// rather than adopting t's slice.
func TestMutateUnionNeverAliasesArgument(t *testing.T) {
	big := Of(1, 70, 130)
	snapshot := big.Key()
	var s Set
	s.MutateUnion(big) // s was empty: the grow path runs
	s.MutateRemove(70)
	s.MutateAdd(200)
	if big.Key() != snapshot {
		t.Fatalf("argument mutated through aliasing: %v (key %q), want key %q", big, big.Key(), snapshot)
	}
}

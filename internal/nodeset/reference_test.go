package nodeset

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refOf is Of by one Add (one word-slice clone) per ID.
func refOf(ids ...int) Set {
	var s Set
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// refString is String by a strings.Builder and Itoa.
func refString(s Set) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(id))
	}
	b.WriteByte('}')
	return b.String()
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestOfStringKeyCompareMatchReference: Of builds the same normal-form set
// as adding the IDs one at a time (duplicates and any order included),
// String matches the Builder rendering, and KeyCompare orders sets exactly
// as their Key strings compare.
func TestOfStringKeyCompareMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var prev Set
	for trial := 0; trial < 2000; trial++ {
		span := 1 + r.Intn(200)
		ids := make([]int, r.Intn(12))
		for i := range ids {
			ids[i] = r.Intn(span)
		}
		got, want := Of(ids...), refOf(ids...)
		if !got.Equal(want) || len(got.words) != len(want.words) {
			t.Fatalf("Of(%v) = %v (%d words), reference %v (%d words)", ids, got, len(got.words), want, len(want.words))
		}
		if s, w := got.String(), refString(got); s != w {
			t.Fatalf("String = %q, reference %q", s, w)
		}
		for _, other := range []Set{prev, got, randomSet(r, span, 0.3)} {
			if c, w := got.KeyCompare(other), strings.Compare(got.Key(), other.Key()); c != sign(w) {
				t.Fatalf("KeyCompare(%v, %v) = %d, key order %d", got, other, c, w)
			}
		}
		prev = got
	}
}

func TestOfRejectsNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Of accepted a negative ID")
		}
	}()
	Of(3, -1)
}

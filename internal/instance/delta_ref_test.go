package instance_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rmt/internal/gen"
	"rmt/internal/instance"
)

// refDeltaCanonicalString is Delta.CanonicalString as it was written
// before it shared one appender with ChainKey: fmt per ID and per edge,
// and sort.Slice over a copy of each class.
func refDeltaCanonicalString(d instance.Delta) string {
	var b strings.Builder
	b.WriteString("rmt-delta-v1\n")
	fmt.Fprintf(&b, "+V{%s} +E{%s} -E{%s} -V{%s}",
		refCanonicalIDs(d.AddNodes), refCanonicalEdges(d.AddEdges),
		refCanonicalEdges(d.RemoveEdges), refCanonicalIDs(d.RemoveNodes))
	return b.String()
}

func refCanonicalIDs(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var b strings.Builder
	last := -1
	for _, id := range sorted {
		if id == last {
			continue
		}
		if last >= 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", id)
		last = id
	}
	return b.String()
}

func refCanonicalEdges(edges [][2]int) string {
	sorted := make([][2]int, len(edges))
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		sorted[i] = e
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	var b strings.Builder
	last := [2]int{-1, -1}
	for _, e := range sorted {
		if e == last {
			continue
		}
		if last[0] >= 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
		last = e
	}
	return b.String()
}

// refChainKey is ChainKey over the reference text.
func refChainKey(prev string, d instance.Delta) string {
	sum := sha256.Sum256([]byte("rmt-delta-chain-v1\n" + prev + "\n" + refDeltaCanonicalString(d)))
	return hex.EncodeToString(sum[:])
}

// FuzzChainKeyMatchesReference decodes a base instance and up to four
// deltas as FuzzApplyDelta does. Every delta that Validate accepts must
// render the reference's canonical text and extend the chain to the
// reference's key; the chain then advances over the applied delta.
// (Validate rejects negative IDs, the one input the two writers spell
// differently: the reference reads -1 as "no previous ID".)
func FuzzChainKeyMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 1, 2, 3, 4, 5, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 1, 4, 0, 2, 2, 0x1e, 3, 1, 2, 3, 4, 0x21, 2})
	f.Add([]byte{4, 11, 3, 70, 9, 120, 64, 65, 1, 2, 33, 100, 40, 30, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 2, 0xff, 0x0f, 0x10, 0x20, 4, 0x7f, 0xfc, 0x01, 0x80, 0xf9, 0x60, 0xfa, 0xfb})
	f.Add([]byte{2, 3, 10, 20, 30, 40, 3, 0, 1, 1, 2, 2, 3, 1, 3, 0, 3, 0x03, 0x85, 0x05, 1, 0x41, 0, 0x41, 3})
	f.Add([]byte{1, 8, 0, 1, 2, 3, 4, 5, 6, 7, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 7, 0, 4, 0x7f, 3, 1, 5, 2, 0x90, 0x81, 0x7e, 4, 2, 4, 6, 1, 3, 5, 0x1f, 6, 2, 2, 6, 0x81, 0x81, 0x90, 0x90})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &deltaFuzzInput{data: data}
		g, z, dealer, receiver, level := in.base()
		cur, err := gen.Build(g, z, level, dealer, receiver)
		if err != nil {
			t.Fatalf("base tuple rejected: %v", err)
		}
		prev := cur.CanonicalKey()
		for step := int(in.byte()) % 5; step > 0; step-- {
			delta := in.delta(cur.G.SortedIDs())
			if delta.Validate(cur) != nil {
				continue
			}
			if got, want := delta.CanonicalString(), refDeltaCanonicalString(delta); got != want {
				t.Fatalf("%+v renders %q, reference %q", delta, got, want)
			}
			key := refChainKey(prev, delta)
			if got := instance.ChainKey(prev, delta); got != key {
				t.Fatalf("%+v extends %s to %s, reference %s", delta, prev, got, key)
			}
			if cur, err = gen.ApplyDelta(cur, delta, level); err != nil {
				t.Fatalf("Validate accepted %+v, Apply failed: %v", delta, err)
			}
			prev = key
		}
	})
}

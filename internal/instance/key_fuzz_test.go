package instance_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// refLocalStructure is Z_v as LocalStructure built it before the index:
// 𝒵 restricted to V(γ(v)) by a scan of every maximal set.
func refLocalStructure(in *instance.Instance, v int) adversary.Restricted {
	return in.Z.RestrictTo(in.Gamma.NodesOf(v))
}

// keyFuzzTuple decodes fuzz bytes into a small tuple at one knowledge
// level: 2–13 nodes on IDs 0..n-1, or spread over a span past 64 so rows
// and sets take several words; up to 40 edges; up to three maximal sets
// over the relays. Missing bytes read as zero, so every input decodes.
func keyFuzzTuple(data []byte) (g *graph.Graph, z adversary.Structure, dealer, receiver int, level gen.Knowledge) {
	d := &deltaFuzzInput{data: data}
	head := d.byte()
	level = gen.Levels()[int(head&0x7f)%5]
	n := 2 + int(d.byte())%12
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
		if head&0x80 != 0 {
			if i > 0 {
				ids[i] = ids[i-1] + 1 + int(d.byte())%40
			}
			if i == n-1 {
				ids[i] = max(ids[i], 65+int(d.byte())%200)
			}
		}
	}
	g = graph.New()
	for _, id := range ids {
		g.AddNode(id)
	}
	for m := int(d.byte()) % 41; m > 0; m-- {
		u, v := ids[int(d.byte())%n], ids[int(d.byte())%n]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	dealer, receiver = ids[0], ids[n-1]
	var sets []nodeset.Set
	for k := int(d.byte()) % 4; k > 0; k-- {
		mask := int(d.byte()) | int(d.byte())<<8
		var s nodeset.Set
		for i, v := range ids[1 : n-1] {
			if mask&(1<<i) != 0 {
				s.MutateAdd(v)
			}
		}
		sets = append(sets, s)
	}
	return g, adversary.FromSets(sets...), dealer, receiver, level
}

// FuzzCanonicalKeyMatchesReference checks the word-level key writer and
// the indexed Z_v against their references on decoded tuples: the
// canonical text equals refCanonicalString byte for byte, the key is its
// SHA-256, and every node's LocalStructure — and LocalKnowledge, once
// complete — equals 𝒵 restricted to V(γ(v)) by a scan of every maximal set.
func FuzzCanonicalKeyMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 6, 2, 0xff, 0x0f, 0x3c, 0})
	f.Add([]byte{0x81, 9, 3, 7, 30, 2, 11, 39, 5, 20, 1, 100, 25, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 0, 5, 3, 0x55, 0x01, 0xaa, 0x02, 0x0f, 0})
	f.Add([]byte{0x84, 3, 39, 39, 39, 150, 4, 0, 1, 1, 2, 2, 3, 3, 4, 1, 3, 0})
	f.Add([]byte{2, 11, 30, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8, 10, 9, 11, 10, 12, 3, 0x11, 0x02, 0x22, 0x04, 0x44, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, z, dealer, receiver, level := keyFuzzTuple(data)
		in, err := gen.Build(g, z, level, dealer, receiver)
		if err != nil {
			t.Fatalf("decoded tuple rejected: %v", err)
		}
		want := refCanonicalString(in)
		if got := in.CanonicalString(); got != want {
			t.Fatalf("canonical text differs:\n got  %q\n want %q", got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if got := in.CanonicalKey(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("key %s is not the SHA-256 of the reference text", got)
		}
		for _, v := range append(g.SortedIDs(), g.MaxID()+1) {
			want := refLocalStructure(in, v)
			if !g.HasNode(v) {
				want = adversary.Identity()
			}
			if got := in.LocalStructure(v); !got.Equal(want) {
				t.Fatalf("Z_%d = %v, reference %v", v, got, want)
			}
		}
		lk := in.LocalKnowledge()
		if len(lk) != g.NumNodes() {
			t.Fatalf("LocalKnowledge holds %d nodes, want %d", len(lk), g.NumNodes())
		}
		for v, r := range lk {
			if !r.Equal(refLocalStructure(in, v)) {
				t.Fatalf("LocalKnowledge[%d] = %v, reference %v", v, r, refLocalStructure(in, v))
			}
		}
	})
}

package instance_test

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
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

// partsFuzzEdit derives a second tuple from (g, z, dealer, receiver), as
// op picks from edit's bytes: a respelling of the same tuple (the edges
// inserted in another order and orientation; a subset of a maximal set
// added to 𝒵), or one edit (toggle an edge, add a node, toggle a relay's
// membership in a maximal set, move the dealer or the receiver to a relay
// no maximal set holds, or swap them when there is none). respelled
// reports whether the tuple is the same one.
func partsFuzzEdit(g *graph.Graph, z adversary.Structure, dealer, receiver int, op byte, edit []byte) (g2 *graph.Graph, z2 adversary.Structure, d2, r2 int, respelled bool) {
	e := &deltaFuzzInput{data: edit}
	ids := g.SortedIDs()
	g2, z2, d2, r2 = g, z, dealer, receiver
	switch op % 6 {
	case 0:
		edges := g.Edges()
		for i := len(edges) - 1; i > 0; i-- {
			j := int(e.byte()) % (i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		g2 = graph.New()
		for i, uv := range edges {
			if e.byte()&1 != 0 || i%3 == 0 {
				uv[0], uv[1] = uv[1], uv[0]
			}
			g2.AddEdge(uv[0], uv[1])
		}
		for i := len(ids) - 1; i >= 0; i-- {
			g2.AddNode(ids[i])
		}
		return g2, z2, d2, r2, true
	case 1:
		maximal := z.Maximal()
		members := maximal[int(e.byte())%len(maximal)].Members()
		var sub nodeset.Set
		for i, v := range members {
			if e.byte()&1 != 0 || i == 0 {
				sub.MutateAdd(v)
			}
		}
		return g2, adversary.FromSets(append(slices.Clone(maximal), sub)...), d2, r2, true
	case 2:
		u, v := ids[int(e.byte())%len(ids)], ids[int(e.byte())%len(ids)]
		if u == v {
			v = ids[(slices.Index(ids, u)+1)%len(ids)]
		}
		g2 = g.Clone()
		if g.HasEdge(u, v) {
			g2.RemoveEdge(u, v)
		} else {
			g2.AddEdge(u, v)
		}
	case 3:
		g2 = g.Clone()
		g2.AddNode(g.MaxID() + 1 + int(e.byte()))
	case 4:
		relays := ids[1 : len(ids)-1]
		if len(relays) == 0 {
			break
		}
		sets := slices.Clone(z.Maximal())
		i, v := int(e.byte())%len(sets), relays[int(e.byte())%len(relays)]
		if sets[i].Contains(v) {
			sets[i] = sets[i].Remove(v)
		} else {
			sets[i] = sets[i].Add(v)
		}
		z2 = adversary.FromSets(sets...)
	case 5:
		free := slices.DeleteFunc(slices.Clone(ids[1:len(ids)-1]), z.Ground().Contains)
		switch b := e.byte(); {
		case len(free) == 0:
			d2, r2 = receiver, dealer
		case b&1 == 0:
			d2 = free[int(b>>1)%len(free)]
		default:
			r2 = free[int(b>>1)%len(free)]
		}
	}
	return g2, z2, d2, r2, false
}

// FuzzPartsKeyMatchesCanonicalKey checks that the parts key names the
// tuples CanonicalKey names: it decodes a tuple and a level
// (keyFuzzTuple), derives a second tuple (partsFuzzEdit), builds both at
// that level, and requires equal parts keys exactly when the canonical
// keys are equal, and both equal for a respelling. rmtd's feasibility
// cache keys by the parts key in place of the canonical key on this
// equivalence.
func FuzzPartsKeyMatchesCanonicalKey(f *testing.F) {
	dense := []byte{0, 5, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 6, 2, 0xff, 0x0f, 0x3c, 0}
	spread := []byte{0x81, 9, 3, 7, 30, 2, 11, 39, 5, 20, 1, 100, 25, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 0, 5, 3, 0x55, 0x01, 0xaa, 0x02, 0x0f, 0}
	for op := byte(0); op < 6; op++ {
		f.Add(dense, op, []byte{3, 1, 4, 1, 5, 9, 2, 6})
		f.Add(spread, op, []byte{2, 7, 1, 8, 2, 8, 1, 8})
	}
	f.Fuzz(func(t *testing.T, data []byte, op byte, edit []byte) {
		g, z, dealer, receiver, level := keyFuzzTuple(data)
		g2, z2, d2, r2, respelled := partsFuzzEdit(g, z, dealer, receiver, op, edit)
		a, err := gen.Build(g, z, level, dealer, receiver)
		if err != nil {
			t.Fatalf("decoded tuple rejected: %v", err)
		}
		b, err := gen.Build(g2, z2, level, d2, r2)
		if err != nil {
			t.Fatalf("op %d: derived tuple rejected: %v", op%6, err)
		}
		pa := string(instance.AppendPartsKey(nil, g, z, dealer, receiver))
		pb := string(instance.AppendPartsKey(nil, g2, z2, d2, r2))
		samePK, sameCK := pa == pb, a.CanonicalKey() == b.CanonicalKey()
		if samePK != sameCK {
			t.Fatalf("op %d at %s: parts keys equal %t, canonical keys equal %t\n%s\n%s", op%6, level, samePK, sameCK, a.CanonicalString(), b.CanonicalString())
		}
		if respelled && !samePK {
			t.Fatalf("op %d at %s: a respelling moved the keys\n%s\n%s", op%6, level, a.CanonicalString(), b.CanonicalString())
		}
	})
}

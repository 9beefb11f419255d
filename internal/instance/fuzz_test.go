package instance_test

import (
	"math"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// deltaFuzzInput decodes fuzz bytes into a small base instance, a
// knowledge level and up to four deltas. Missing bytes read as zero, so
// every input decodes.
type deltaFuzzInput struct {
	data []byte
	pos  int
}

func (d *deltaFuzzInput) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// specialIDs are the delta IDs the limits in Validate exist for.
var specialIDs = [...]int{-1, -7, math.MinInt, math.MaxInt, 1<<20 + 1, math.MaxInt / 2, 128, 4096}

// id decodes one delta node ID against the current graph: mostly one of
// its nodes, else a raw ID in [100, 220) (some taken, some fresh), else a
// negative, over-limit or far-away ID.
func (d *deltaFuzzInput) id(ids []int) int {
	b := d.byte()
	switch {
	case b < 0x80:
		return ids[int(b)%len(ids)]
	case b < 0xF8:
		return 100 + int(b-0x80)
	default:
		return specialIDs[b-0xF8]
	}
}

// base decodes the base tuple: 2–12 distinct nodes with IDs below 128, up
// to 40 edges among them, and up to three random maximal sets over the
// relays (none gives the trivial structure). D and R are the first and
// last node drawn.
func (d *deltaFuzzInput) base() (g *graph.Graph, z adversary.Structure, dealer, receiver int, level gen.Knowledge) {
	level = gen.Levels()[int(d.byte())%5]
	g = graph.New()
	var ids []int
	for want := 2 + int(d.byte())%11; len(ids) < want; {
		id := int(d.byte()) % 128
		for g.HasNode(id) {
			id = (id + 1) % 128
		}
		g.AddNode(id)
		ids = append(ids, id)
	}
	for m := int(d.byte()) % 41; m > 0; m-- {
		u, v := ids[int(d.byte())%len(ids)], ids[int(d.byte())%len(ids)]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	dealer, receiver = ids[0], ids[len(ids)-1]
	relays := ids[1 : len(ids)-1]
	var sets []nodeset.Set
	for k := int(d.byte()) % 4; k > 0; k-- {
		mask := int(d.byte()) | int(d.byte())<<8
		var s nodeset.Set
		for i, v := range relays {
			if mask&(1<<i) != 0 {
				s.MutateAdd(v)
			}
		}
		sets = append(sets, s)
	}
	return g, adversary.FromSets(sets...), dealer, receiver, level
}

// delta decodes one delta: a header byte gives the number of added nodes
// (0–1), added edges, removed edges and removed nodes (0–3 each).
func (d *deltaFuzzInput) delta(ids []int) instance.Delta {
	h := d.byte()
	var out instance.Delta
	for i := int(h & 1); i > 0; i-- {
		out.AddNodes = append(out.AddNodes, d.id(ids))
	}
	for i := int(h>>1) & 3; i > 0; i-- {
		out.AddEdges = append(out.AddEdges, [2]int{d.id(ids), d.id(ids)})
	}
	for i := int(h>>3) & 3; i > 0; i-- {
		out.RemoveEdges = append(out.RemoveEdges, [2]int{d.id(ids), d.id(ids)})
	}
	for i := int(h>>5) & 3; i > 0; i-- {
		out.RemoveNodes = append(out.RemoveNodes, d.id(ids))
	}
	return out
}

// replay applies a validated delta's edits to a fresh copy of g, built
// edge by edge so it shares no rows with g, in Apply's documented order.
func replay(g *graph.Graph, delta instance.Delta) *graph.Graph {
	out := graph.New()
	g.Nodes().ForEach(func(v int) bool {
		out.AddNode(v)
		return true
	})
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	for _, n := range delta.AddNodes {
		out.AddNode(n)
	}
	for _, e := range delta.AddEdges {
		out.AddEdge(e[0], e[1])
	}
	for _, e := range delta.RemoveEdges {
		out.RemoveEdge(e[0], e[1])
	}
	for _, n := range delta.RemoveNodes {
		out.RemoveNode(n)
	}
	return out
}

// FuzzApplyDelta checks delta application against a fresh build. Nothing
// may panic; a delta Validate rejects must be rejected by Apply with the
// same error; and an applied delta must give the instance — compared by
// CanonicalKey — that gen.Build makes from a fresh copy of the edited
// graph at the same level, with the same terminals and the structure
// restricted to the surviving nodes when nodes were removed. The last
// property pins the rows Clone shares and the views rebuilt over them.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 1, 2, 3, 4, 5, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 1, 4, 0, 2, 2, 0x1e, 3, 1, 2, 3, 4, 0x21, 2})
	f.Add([]byte{4, 11, 3, 70, 9, 120, 64, 65, 1, 2, 33, 100, 40, 30, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 2, 0xff, 0x0f, 0x10, 0x20, 4, 0x7f, 0xfc, 0x01, 0x80, 0xf9, 0x60, 0xfa, 0xfb})
	f.Add([]byte{2, 3, 10, 20, 30, 40, 3, 0, 1, 1, 2, 2, 3, 1, 3, 0, 3, 0x03, 0x85, 0x05, 1, 0x41, 0, 0x41, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &deltaFuzzInput{data: data}
		g, z, dealer, receiver, level := in.base()
		cur, err := gen.Build(g, z, level, dealer, receiver)
		if err != nil {
			t.Fatalf("base tuple rejected: %v", err)
		}
		for step := int(in.byte()) % 5; step > 0; step-- {
			delta := in.delta(cur.G.SortedIDs())
			verr := delta.Validate(cur)
			next, aerr := gen.ApplyDelta(cur, delta, level)
			if verr != nil {
				if aerr == nil || aerr.Error() != verr.Error() {
					t.Fatalf("Validate rejected %+v with %q, Apply returned %v", delta, verr, aerr)
				}
				continue
			}
			if aerr != nil {
				t.Fatalf("Validate accepted %+v, Apply failed: %v", delta, aerr)
			}
			edited := replay(cur.G, delta)
			if !edited.Equal(next.G) {
				t.Fatalf("Apply(%+v) built %v, replay %v", delta, next.G, edited)
			}
			fz := cur.Z
			if len(delta.RemoveNodes) > 0 {
				fz = fz.Restrict(edited.Nodes())
			}
			fresh, err := gen.Build(edited, fz, level, dealer, receiver)
			if err != nil {
				t.Fatalf("fresh build of the edited tuple: %v", err)
			}
			if next.CanonicalKey() != fresh.CanonicalKey() {
				t.Fatalf("Apply(%+v) keys %s, fresh build %s", delta, next.CanonicalKey(), fresh.CanonicalKey())
			}
			cur = next
		}
	})
}

package cutsearch_test

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// decodeInstance turns fuzz bytes into a small instance; missing bytes read
// as zero. Layout:
//
//	[0] n = 4 + b%9 nodes      [1] knowledge level, or radius-0 views
//	                                (every view just its owner)
//	[2] 1 + b%4 maximal sets    [3] ID stride 1 + b%12 (stride·(n−1) ≥ 64
//	                                gives rows of two words)
//	then one bit per node pair (u < v) for the edges, then two bytes per
//	maximal set masking the non-terminal nodes.
//
// D is the first node and R the last.
func decodeInstance(data []byte) (*instance.Instance, error) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	n := 4 + int(next()%9)
	level := int(next()) % (len(gen.Levels()) + 1)
	sets := 1 + int(next()%4)
	stride := 1 + int(next()%12)
	id := func(i int) int { return i * stride }

	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(id(i))
	}
	var bits byte
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if k%8 == 0 {
				bits = next()
			}
			if bits&(1<<(k%8)) != 0 {
				g.AddEdge(id(u), id(v))
			}
			k++
		}
	}
	maximal := make([]nodeset.Set, 0, sets)
	for s := 0; s < sets; s++ {
		mask := int(next()) | int(next())<<8
		var m nodeset.Set
		for i := 1; i < n-1; i++ {
			if mask&(1<<(i-1)) != 0 {
				m.MutateAdd(id(i))
			}
		}
		maximal = append(maximal, m)
	}
	z := adversary.FromSets(maximal...)
	if level == len(gen.Levels()) {
		return instance.New(g, z, view.Radius(g, 0), id(0), id(n-1))
	}
	return gen.Build(g, z, gen.Levels()[level], id(0), id(n-1))
}

// FuzzCutSearchMatchesReference is the byte-driven form of
// TestSearchMatchesReference: on every decoded instance the kernel's
// verdict, witness and completeness must equal the ⊕-based reference's,
// for both cut rules under budgets 0, 1, 3 and 10.
func FuzzCutSearchMatchesReference(f *testing.F) {
	// 4 nodes, ad hoc; 6 nodes, full knowledge; 12 nodes on IDs up to 88.
	f.Add([]byte{0, 0, 0, 0, 0x3f, 0x01, 0x02})
	f.Add([]byte{2, 4, 1, 0, 0xff, 0x7f, 0x33, 0x0f, 0x00, 0x06, 0x00})
	f.Add([]byte{8, 1, 3, 7, 0xa5, 0x5a, 0xc3, 0x3c, 0x99, 0x66, 0x0f, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeInstance(data)
		if err != nil {
			t.Skip(err)
		}
		checkAgainstReference(t, "fuzz", in)
	})
}

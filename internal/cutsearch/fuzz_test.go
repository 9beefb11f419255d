package cutsearch_test

import (
	"context"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/cutsearch"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// bytesIn reads fuzz bytes in order; missing bytes read as zero.
type bytesIn struct {
	data []byte
	pos  int
}

func (b *bytesIn) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return b.data[b.pos-1]
}

// decodeInstance turns fuzz bytes into a small instance. Layout:
//
//	[0] n = 4 + b%9 nodes      [1] knowledge level, or radius-0 views
//	                                (every view just its owner)
//	[2] 1 + b%4 maximal sets    [3] ID stride 1 + b%12 (stride·(n−1) ≥ 64
//	                                gives rows of two words)
//	then one bit per node pair (u < v) for the edges, then two bytes per
//	maximal set masking the non-terminal nodes.
//
// D is the first node and R the last.
func decodeInstance(src *bytesIn) (*instance.Instance, error) {
	n := 4 + int(src.next()%9)
	level := int(src.next()) % (len(gen.Levels()) + 1)
	sets := 1 + int(src.next()%4)
	stride := 1 + int(src.next()%12)
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
				bits = src.next()
			}
			if bits&(1<<(k%8)) != 0 {
				g.AddEdge(id(u), id(v))
			}
			k++
		}
	}
	maximal := make([]nodeset.Set, 0, sets)
	for s := 0; s < sets; s++ {
		mask := int(src.next()) | int(src.next())<<8
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

// claim is one type-2 claim as the PKA receiver reads it: a claimed view
// and a restricted structure on that view's nodes.
type claim struct {
	view *graph.Graph
	z    adversary.Restricted
}

// decodeClaims reads one byte per node of in, choosing the claim a
// receiver holds for it in the shapes the registered strategies send, and
// returns the claims and G_M, the union of the claimed views induced on
// the claimed nodes. R's claim is always the truth. In each node's byte,
// bits 0–1 pick the view: γ(v), or γ(v) plus an edge to D, to a ghost
// node (which then claims the view D–ghost–v with a trivial structure) or
// to R; bits 2–3 pick the structure on the view's nodes: 𝒵 restricted to
// them, trivial (understated), all of them but D and R (overstated), or
// two sets masked by the next two bytes.
func decodeClaims(src *bytesIn, in *instance.Instance) (*graph.Graph, claimSet) {
	d, r := in.Dealer, in.Receiver
	ghost := in.G.MaxID() + 1
	claims := make(claimSet)
	in.G.Nodes().ForEach(func(v int) bool {
		b := src.next()
		if v == r {
			b = 0
		}
		claimed := in.Gamma.Of(v)
		if other := [4]int{-1, d, ghost, r}[b&3]; other >= 0 && other != v {
			claimed = claimed.Clone()
			claimed.AddEdge(v, other)
		}
		if b&3 == 2 {
			if _, ok := claims[ghost]; !ok {
				gv := graph.New()
				gv.AddEdge(d, ghost)
				gv.AddEdge(ghost, v)
				claims[ghost] = claim{gv, adversary.Trivial().RestrictTo(gv.Nodes())}
			}
		}
		dom := claimed.Nodes()
		var z adversary.Structure
		switch b >> 2 & 3 {
		case 0:
			z = in.Z.Restrict(dom)
		case 1:
			z = adversary.Trivial()
		case 2:
			z = adversary.FromSets(dom.Remove(d).Remove(r))
		case 3:
			members := dom.Members()
			var sets [2]nodeset.Set
			for i := range sets {
				mask := src.next()
				for j, u := range members {
					if j < 8 && mask&(1<<j) != 0 {
						sets[i].MutateAdd(u)
					}
				}
			}
			z = adversary.FromSets(sets[:]...)
		}
		claims[v] = claim{claimed, adversary.Restricted{Domain: dom, Structure: z}}
		return true
	})
	var members nodeset.Set
	for v := range claims {
		members.MutateAdd(v)
	}
	gm := graph.New()
	members.ForEach(func(v int) bool {
		gm = gm.Union(claims[v].view)
		return true
	})
	return gm.InducedSubgraph(members), claims
}

// coverFound runs the kernel on the Input the PKA receiver's cover check
// builds: G_M, no C1 but ∅, and each node's claimed view and maximal sets
// under the JointView rule.
func coverFound(gm *graph.Graph, dealer, receiver int, claims claimSet) bool {
	_, found, _, _ := cutsearch.Search(context.Background(), cutsearch.Input{
		G: gm, Dealer: dealer, Receiver: receiver,
		C1:    []nodeset.Set{nodeset.Empty()},
		Views: claims,
		Fit:   func(u int) []nodeset.Set { return claims[u].z.Structure.Maximal() },
		Rule:  cutsearch.JointView,
	}, 0)
	return found
}

// claimSet holds one claim per node of G_M.
type claimSet map[int]claim

func (c claimSet) NodesOf(u int) nodeset.Set { return c[u].view.Nodes() }

// FuzzCutSearchMatchesReference is the byte-driven form of the
// differential tests. After the instance, one byte picks the condition:
//
//	0  Definitions 3 and 7: the kernel's verdict, witness and completeness
//	   equal the reference's under budgets 0, 1, 3 and 10, and the
//	   verifiers accept and reject as the references do
//	1  Definition 10 on the broadcast instance (G, 𝒵, γ, D)
//	2  PPA's pair cut
//	3  Definition 6's adversary cover over claims decoded from the rest
func FuzzCutSearchMatchesReference(f *testing.F) {
	// 4 nodes, ad hoc; 6 nodes, full knowledge; 12 nodes on IDs up to 88.
	f.Add([]byte{0, 0, 0, 0, 0x3f, 0x01, 0x02})
	f.Add([]byte{2, 4, 1, 0, 0xff, 0x7f, 0x33, 0x0f, 0x00, 0x06, 0x00})
	f.Add([]byte{8, 1, 3, 7, 0xa5, 0x5a, 0xc3, 0x3c, 0x99, 0x66, 0x0f, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &bytesIn{data: data}
		in, err := decodeInstance(src)
		if err != nil {
			t.Skip(err)
		}
		switch src.next() % 4 {
		case 0:
			checkAgainstReference(t, "fuzz", in)
			checkVerifiers(t, "fuzz", in)
		case 1:
			checkDefinition10(t, "fuzz", in)
		case 2:
			checkPairCut(t, "fuzz", in)
		case 3:
			gm, claims := decodeClaims(src, in)
			if got, want := coverFound(gm, in.Dealer, in.Receiver, claims), refCover(gm, in.Dealer, in.Receiver, claims); got != want {
				t.Fatalf("cover on G_M %v: kernel %v, reference %v", gm, got, want)
			}
		}
	})
}

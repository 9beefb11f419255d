package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// refRenderVersionKey is the claim key as Graph.String (one Fprintf per
// edge) and Restricted.String (Sprintf) rendered it before both became
// appends. The renderers are inlined so the reference does not depend on
// the code it pins.
func refRenderVersionKey(ni NodeInfo) string {
	set := func(s nodeset.Set) string {
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
	var view strings.Builder
	fmt.Fprintf(&view, "G(V=%s, E={", set(ni.View.Nodes()))
	for i, e := range ni.View.Edges() {
		if i > 0 {
			view.WriteString(", ")
		}
		fmt.Fprintf(&view, "%d-%d", e[0], e[1])
	}
	view.WriteString("})")
	var z strings.Builder
	z.WriteString("⟨")
	for i, m := range ni.Z.Structure.Maximal() {
		if i > 0 {
			z.WriteString(", ")
		}
		z.WriteString(set(m))
	}
	z.WriteString("⟩")
	return strconv.Itoa(ni.Node) + "|" + view.String() + "|" + fmt.Sprintf("%s on %s", z.String(), set(ni.Z.Domain))
}

// TestVersionKeyMatchesReference: honest claims (γ(v), Z_v) of seeded
// random instances at every knowledge level, with dense and spread IDs,
// and forged claims about fictitious nodes all render the reference's
// exact bytes — payload keys reach transcripts.
func TestVersionKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	claims := 0
	for trial := 0; claims < 2000; trial++ {
		n := 3 + r.Intn(10)
		span := n
		if trial%2 == 1 {
			span = 64 + r.Intn(120)
		}
		ids := r.Perm(span)[:n]
		g := graph.New()
		for _, id := range ids {
			g.AddNode(id)
		}
		for _, e := range gen.RandomGNP(r, n, 0.2+0.5*r.Float64()).Edges() {
			g.AddEdge(ids[e[0]], ids[e[1]])
		}
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(ids[0], ids[1])), 1+r.Intn(4), 0.3)
		in, err := gen.Build(g, z, gen.Levels()[trial%5], ids[0], ids[1])
		if err != nil {
			t.Fatal(err)
		}
		check := func(ni NodeInfo) {
			claims++
			if got, want := ni.VersionKey(), refRenderVersionKey(ni); got != want {
				t.Fatalf("trial %d: version key %q, reference %q", trial, got, want)
			}
			if got, want := ni.Sealed().VersionKey(), refRenderVersionKey(ni); got != want {
				t.Fatalf("trial %d: sealed key %q, reference %q", trial, got, want)
			}
		}
		g.Nodes().ForEach(func(v int) bool {
			check(NodeInfo{Node: v, View: in.Gamma.Of(v), Z: in.LocalStructure(v)})
			return true
		})
		// A forged claim: a fictitious node wired into a random view, with
		// a structure over that view's nodes.
		ghost := span + r.Intn(100)
		fake := in.Gamma.Of(ids[r.Intn(n)]).Clone()
		fake.AddEdge(ghost, fake.Nodes().Min())
		check(NodeInfo{Node: ghost, View: fake, Z: adversary.Random(r, fake.Nodes(), 2, 0.4).RestrictTo(fake.Nodes())})
	}
}

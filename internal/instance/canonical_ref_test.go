package instance_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// refCanonicalString is the rmt-instance-v1 text as renderCanonical built
// it with fmt before the streamed writer: one Fprintf per view line and
// per edge of every view, and the structure's keys sorted as strings.
func refCanonicalString(in *instance.Instance) string {
	var b strings.Builder
	b.WriteString("rmt-instance-v1\n")
	fmt.Fprintf(&b, "graph: %s\n", refCanonicalGraph(in.G))
	maximal := in.Z.Maximal()
	keys := make([]string, len(maximal))
	for i, s := range maximal {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "structure: %s\n", strings.Join(keys, ";"))
	b.WriteString("gamma:\n")
	in.Gamma.Domain().ForEach(func(v int) bool {
		fmt.Fprintf(&b, "  %d: %s\n", v, refCanonicalGraph(in.Gamma.Of(v)))
		return true
	})
	fmt.Fprintf(&b, "dealer: %d\nreceiver: %d\n", in.Dealer, in.Receiver)
	return b.String()
}

func refCanonicalGraph(g *graph.Graph) string {
	var b strings.Builder
	b.WriteString("V{")
	b.WriteString(g.Nodes().Key())
	b.WriteString("} E{")
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteString("}")
	return b.String()
}

// mixedViews is a view function outside the gen levels: each γ(v) is G
// itself, a copy of G (equal but not the same graph), or the subgraph
// induced by v and a random part of its radius-2 ball.
func mixedViews(r *rand.Rand, g *graph.Graph) (view.Function, error) {
	views := make(map[int]*graph.Graph)
	g.Nodes().ForEach(func(v int) bool {
		switch r.Intn(4) {
		case 0:
			views[v] = g
		case 1:
			views[v] = g.Clone()
		default:
			keep := nodeset.Of(v)
			g.Ball(v, 2).ForEach(func(u int) bool {
				if r.Intn(2) == 0 {
					keep = keep.Add(u)
				}
				return true
			})
			views[v] = g.InducedSubgraph(keep)
		}
		return true
	})
	return view.FromMap(views)
}

// TestCanonicalWriterMatchesReference: over seeded random tuples (dense
// and spread IDs, isolated nodes, trivial and random structures, up to 40
// nodes) at every knowledge level and under mixed views, the streamed
// writer produces the reference text byte for byte, and CanonicalKey is
// its SHA-256.
func TestCanonicalWriterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	checked := 0
	for trial := 0; checked < 1200; trial++ {
		span := 0
		if trial%2 == 1 {
			span = 64 + r.Intn(150)
		}
		n := 2 + r.Intn(13)
		if trial%50 == 0 {
			n = 40 // a text long enough to flush the writer's buffer mid-view
		}
		g, z, d, rcv := randomTuple(r, n, span, trial%3 == 0, trial%5 == 0)
		var ins []*instance.Instance
		for _, k := range gen.Levels() {
			in, err := gen.Build(g, z, k, d, rcv)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
		gamma, err := mixedViews(r, g)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := instance.New(g, z, gamma, d, rcv)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range append(ins, mixed) {
			checked++
			want := refCanonicalString(in)
			if got := in.CanonicalString(); got != want {
				t.Fatalf("trial %d: canonical text differs:\n got  %q\n want %q", trial, got, want)
			}
			sum := sha256.Sum256([]byte(want))
			if got := in.CanonicalKey(); got != hex.EncodeToString(sum[:]) {
				t.Fatalf("trial %d: key %s is not the SHA-256 of the reference text", trial, got)
			}
		}
	}
}

package instance_test

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

// The recorded-key file pins actual CanonicalKey and ChainKey values, so a
// rewrite of the key writer, the view constructors or the structure
// restriction cannot change a cache identity unnoticed: every other key
// test compares two keys computed by the same code. Regenerate only after
// an intentional format change (which also invalidates every rmtd cache):
//
//	go test ./internal/instance/ -run TestPinnedCanonicalKeys -update
var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned-keys.txt")

const pinnedKeysFile = "testdata/pinned-keys.txt"

// randomTuple draws a seeded G(n, p) tuple: nodes relabelled onto IDs
// spread over [0, span) when span > n (span > 64 gives sets of more than
// one word), optionally an isolated extra node, and either the trivial
// structure or a random one over the non-terminals. D and R are the first
// and last labels.
func randomTuple(r *rand.Rand, n, span int, isolated, trivial bool) (g *graph.Graph, z adversary.Structure, dealer, receiver int) {
	base := gen.RandomGNP(r, n, 0.2+0.5*r.Float64())
	ids := r.Perm(n)
	if span > n {
		ids = r.Perm(span)[:n]
	}
	g = graph.New()
	for _, id := range ids {
		g.AddNode(id)
	}
	for _, e := range base.Edges() {
		g.AddEdge(ids[e[0]], ids[e[1]])
	}
	if isolated {
		g.AddNode(g.MaxID() + 1 + r.Intn(70))
	}
	dealer, receiver = ids[0], ids[n-1]
	z = adversary.Trivial()
	if !trivial {
		relays := g.Nodes().Minus(nodeset.Of(dealer, receiver))
		z = adversary.Random(r, relays, 1+r.Intn(4), 0.15+0.35*r.Float64())
	}
	return g, z, dealer, receiver
}

// pinnedKeys computes the recorded corpus as "name key" lines: seeded
// tuples at every knowledge level (dense and spread IDs, isolated nodes,
// the trivial structure), the scaled chimera, and the revision keys and
// chain keys along seeded delta chains.
func pinnedKeys(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, in *instance.Instance) {
		lines = append(lines, name+" "+in.CanonicalKey())
	}
	build := func(g *graph.Graph, z adversary.Structure, k gen.Knowledge, d, r int) *instance.Instance {
		in, err := gen.Build(g, z, k, d, r)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		span := 0
		if seed%2 == 1 {
			span = 64 + r.Intn(150)
		}
		g, z, d, rcv := randomTuple(r, 4+r.Intn(11), span, seed%3 == 0, seed%5 == 0)
		for _, k := range gen.Levels() {
			add(fmt.Sprintf("tuple%02d/%s", seed, k), build(g, z, k, d, rcv))
		}
	}
	cg, cz, cd, cr := gen.ChimeraScaled(2)
	for _, k := range gen.Levels() {
		add("chimera2/"+k.String(), build(cg, cz, k, cd, cr))
	}
	for chain := 0; chain < 5; chain++ {
		r := rand.New(rand.NewSource(int64(100 + chain)))
		k := gen.Levels()[chain]
		g, z, d, rcv := randomTuple(r, 6+r.Intn(6), 64*(chain%2)+70, false, false)
		cur := build(g, z, k, d, rcv)
		deltas, err := gen.RandomDeltaChain(cur, k, 6, int64(chain))
		if err != nil {
			t.Fatal(err)
		}
		chainKeys := instance.ChainKeys(cur, deltas)
		for i, delta := range deltas {
			if cur, err = gen.ApplyDelta(cur, delta, k); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("chain%d/%s/rev%d", chain, k, i+1), cur)
			lines = append(lines, fmt.Sprintf("chain%d/%s/chainkey%d %s", chain, k, i+1, chainKeys[i]))
		}
	}
	return lines
}

// TestPinnedCanonicalKeys: every recorded key must be reproduced exactly.
func TestPinnedCanonicalKeys(t *testing.T) {
	got := pinnedKeys(t)
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(pinnedKeysFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedKeysFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedKeysFile)
	if err != nil {
		t.Fatalf("missing recorded keys (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d keys, the recorded file %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("key changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d recorded keys changed", bad, len(want))
	}
}

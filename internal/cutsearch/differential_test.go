package cutsearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/broadcast"
	"rmt/internal/core"
	"rmt/internal/cutsearch"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/ppa"
	"rmt/internal/view"
	"rmt/internal/zcpa"
)

var (
	rules   = []cutsearch.Rule{cutsearch.JointView, cutsearch.Neighborhood}
	budgets = []int{0, 1, 3, 10}
)

func ruleName(rule cutsearch.Rule) string {
	if rule == cutsearch.JointView {
		return "rmt-cut"
	}
	return "zpp-cut"
}

// search runs the kernel through the exported entry point of the package
// that owns the rule, so the differential covers the wrappers too.
func search(in *instance.Instance, rule cutsearch.Rule, budget int) (cutsearch.Witness, bool, bool) {
	if rule == cutsearch.JointView {
		w, found, complete := core.FindRMTCutBounded(in, budget)
		return cutsearch.Witness(w), found, complete
	}
	w, found, complete := zcpa.FindRMTZppCutBounded(in, budget)
	return cutsearch.Witness(w), found, complete
}

func verify(in *instance.Instance, rule cutsearch.Rule, w cutsearch.Witness) error {
	if rule == cutsearch.JointView {
		return core.VerifyRMTCut(in, core.RMTCut(w))
	}
	return zcpa.VerifyZppCut(in, zcpa.ZppCut(w))
}

func sameWitness(a, b cutsearch.Witness) bool {
	return a.C1.Equal(b.C1) && a.C2.Equal(b.C2) && a.B.Equal(b.B)
}

// checkAgainstReference asserts kernel ≡ reference on found, the witness
// and complete, for both rules and every budget, and that every found
// witness verifies. It returns the unbounded verdict per rule.
func checkAgainstReference(t testing.TB, label string, in *instance.Instance) (verdicts [2]bool) {
	t.Helper()
	for ri, rule := range rules {
		for _, budget := range budgets {
			w, found, complete := search(in, rule, budget)
			rw, rfound, rcomplete, _ := refSearch(context.Background(), in, rule, budget)
			if budget == 0 {
				verdicts[ri] = rfound
			}
			if found != rfound || complete != rcomplete || (found && !sameWitness(w, rw)) {
				t.Fatalf("%s %s budget %d on %v: kernel (found %v, complete %v, %v), reference (found %v, complete %v, %v)",
					label, ruleName(rule), budget, in, found, complete, w, rfound, rcomplete, rw)
			}
			if found {
				if err := verify(in, rule, w); err != nil {
					t.Fatalf("%s %s budget %d: witness %v does not verify: %v", label, ruleName(rule), budget, w, err)
				}
			}
		}
	}
	return verdicts
}

// partialViews stands in for a knowledge level: every node's view is the
// subgraph induced by itself and a random half of its radius-2 ball, so
// views may omit neighbors and N(u) ∩ C2 ⊆ V(γ(u)) can fail — the case the
// gen levels, whose views all contain N(u), never reach.
const partialViews gen.Knowledge = 0

// randomInstance draws a G(n, p) instance at the given level, with its
// nodes relabelled onto IDs spread over [0, span) when span > n (span ≥ 64
// gives rows of more than one word). D and R are the first two labels.
func randomInstance(r *rand.Rand, n, span int, level gen.Knowledge) (*instance.Instance, error) {
	p := 0.2 + r.Float64()*0.45
	base := gen.RandomGNP(r, n, p)
	ids := r.Perm(n)
	if span > n {
		ids = r.Perm(span)[:n]
	}
	g := graph.New()
	for _, id := range ids {
		g.AddNode(id)
	}
	for _, e := range base.Edges() {
		g.AddEdge(ids[e[0]], ids[e[1]])
	}
	d, rcv := ids[0], ids[1]
	z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 1+r.Intn(4), 0.15+r.Float64()*0.35)
	if level != partialViews {
		return gen.Build(g, z, level, d, rcv)
	}
	views := make(map[int]*graph.Graph, n)
	for _, v := range ids {
		keep := nodeset.Of(v)
		g.Ball(v, 2).ForEach(func(u int) bool {
			if r.Intn(2) == 0 {
				keep.MutateAdd(u)
			}
			return true
		})
		views[v] = g.InducedSubgraph(keep)
	}
	gamma, err := view.FromMap(views)
	if err != nil {
		return nil, err
	}
	return instance.New(g, z, gamma, d, rcv)
}

func TestSearchMatchesReference(t *testing.T) {
	trials := 480
	if testing.Short() {
		trials = 120
	}
	r := rand.New(rand.NewSource(2016))
	var cuts [2]int
	levels := append(gen.Levels(), partialViews)
	for trial := 0; trial < trials; trial++ {
		level := levels[trial%len(levels)]
		n := 4 + r.Intn(13)
		span := n
		if trial%4 == 3 {
			span = 64 + r.Intn(130)
		}
		in, err := randomInstance(r, n, span, level)
		if err != nil {
			t.Fatal(err)
		}
		for ri, found := range checkAgainstReference(t, fmt.Sprintf("trial %d (%v)", trial, level), in) {
			if found {
				cuts[ri]++
			}
		}
		if level == gen.AdHoc {
			// V(γ(u)) = N(u) ∪ {u} and u ∉ C2: the two rules evaluate every
			// candidate identically (DESIGN §4).
			rw, rfound := core.FindRMTCut(in)
			zw, zfound := zcpa.FindRMTZppCut(in)
			if rfound != zfound || (rfound && !sameWitness(cutsearch.Witness(rw), cutsearch.Witness(zw))) {
				t.Fatalf("trial %d: ad hoc RMT-cut (found %v, %v) differs from 𝒵-pp cut (found %v, %v)", trial, rfound, rw, zfound, zw)
			}
		}
	}
	// Both verdicts must be well represented, or the differential says
	// little about one of them.
	for ri, c := range cuts {
		if c < trials/10 || c > trials-trials/10 {
			t.Errorf("%s: %d of %d instances have a cut; the draw is too lopsided", ruleName(rules[ri]), c, trials)
		}
	}
}

// churnLine is the incremental benchmarks' workload: the 240-node line with
// a corruptible middle relay, then dealer-side chord revisions.
func churnLine(t testing.TB, revs int) []*instance.Instance {
	t.Helper()
	const n = 240
	cur, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	out := []*instance.Instance{cur}
	for i := 0; i < revs; i++ {
		if cur, err = gen.ApplyDelta(cur, instance.Delta{AddEdges: [][2]int{{i, i + 2}}}, gen.AdHoc); err != nil {
			t.Fatal(err)
		}
		out = append(out, cur)
	}
	return out
}

func TestChurnLineMatchesReference(t *testing.T) {
	for i, in := range churnLine(t, 4) {
		checkAgainstReference(t, fmt.Sprintf("churn line rev %d", i), in)
	}
}

// incremental drives the exported checker that owns the rule.
type incremental interface {
	check(in *instance.Instance) (cutsearch.Witness, bool)
	stats() (repaired, fresh int)
}

type coreIncr struct{ *core.IncrementalCut }

func (c coreIncr) check(in *instance.Instance) (cutsearch.Witness, bool) {
	w, f := c.Check(in)
	return cutsearch.Witness(w), f
}
func (c coreIncr) stats() (int, int) { return c.Stats() }

type zcpaIncr struct{ *zcpa.IncrementalCut }

func (c zcpaIncr) check(in *instance.Instance) (cutsearch.Witness, bool) {
	w, f := c.Check(in)
	return cutsearch.Witness(w), f
}
func (c zcpaIncr) stats() (int, int) { return c.Stats() }

func newIncremental(rule cutsearch.Rule) incremental {
	if rule == cutsearch.JointView {
		return coreIncr{core.NewIncrementalCut()}
	}
	return zcpaIncr{zcpa.NewIncrementalCut()}
}

// checkChain asserts the exported incremental checkers ≡ the reference
// incremental control flow on every revision: same verdict, same witness,
// same repaired/fresh counts.
func checkChain(t *testing.T, label string, revisions []*instance.Instance) {
	t.Helper()
	for _, rule := range rules {
		ic, ref := newIncremental(rule), &refIncremental{rule: rule}
		for i, in := range revisions {
			w, found := ic.check(in)
			rw, rfound := ref.check(in)
			if found != rfound || (found && !sameWitness(w, rw)) {
				t.Fatalf("%s %s rev %d: incremental (found %v, %v), reference (found %v, %v)",
					label, ruleName(rule), i, found, w, rfound, rw)
			}
			if rep, fresh := ic.stats(); rep != ref.repaired || fresh != ref.fresh {
				t.Fatalf("%s %s rev %d: stats %d repaired / %d fresh, reference %d / %d",
					label, ruleName(rule), i, rep, fresh, ref.repaired, ref.fresh)
			}
		}
	}
}

// TestIncrementalMatchesReference runs checkChain on seeded 8-step delta
// chains over random instances at every knowledge level, a quarter of them
// on IDs spread over two words. CHURN_CHAINS sets the chain count (default
// 120, 30 under -short); `make churnfuzz` scales it up.
func TestIncrementalMatchesReference(t *testing.T) {
	chains := 120
	if testing.Short() {
		chains = 30
	}
	if s := os.Getenv("CHURN_CHAINS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("CHURN_CHAINS=%q: want a positive integer", s)
		}
		chains = n
	}
	r := rand.New(rand.NewSource(8))
	for c := 0; c < chains; c++ {
		level := gen.Levels()[c%len(gen.Levels())]
		n := 4 + r.Intn(9)
		span := n
		if c%4 == 3 {
			span = 64 + r.Intn(60)
		}
		base, err := randomInstance(r, n, span, level)
		if err != nil {
			t.Fatal(err)
		}
		deltas, err := gen.RandomDeltaChain(base, level, 8, int64(c))
		if err != nil {
			t.Fatal(err)
		}
		revisions := []*instance.Instance{base}
		cur := base
		for _, d := range deltas {
			if cur, err = gen.ApplyDelta(cur, d, level); err != nil {
				t.Fatal(err)
			}
			revisions = append(revisions, cur)
		}
		checkChain(t, fmt.Sprintf("chain %d (%v)", c, level), revisions)
	}
	checkChain(t, "churn line", churnLine(t, 16))
}

// checkDefinition10 asserts kernel ≡ reference, witness included, for
// Definition 10 on the broadcast instance (G, 𝒵, γ, D) of in's tuple, and
// returns the verdict.
func checkDefinition10(t testing.TB, label string, in *instance.Instance) bool {
	t.Helper()
	bin, err := broadcast.NewWithViews(in.G, in.Z, in.Gamma, in.Dealer)
	if err != nil {
		t.Fatal(err)
	}
	w, found := broadcast.FindZppCut(bin)
	rw, rfound := refBroadcastZppCut(bin)
	if found != rfound || (found && !sameWitness(cutsearch.Witness(w), cutsearch.Witness(rw))) {
		t.Fatalf("%s definition 10 on %v: kernel (found %v, %v), reference (found %v, %v)", label, in, found, w, rfound, rw)
	}
	return found
}

// checkPairCut asserts kernel ≡ reference, witness included, for PPA's
// pair cut, and returns the verdict.
func checkPairCut(t testing.TB, label string, in *instance.Instance) bool {
	t.Helper()
	z1, z2, found := ppa.PairCut(in)
	r1, r2, rfound := refPairCut(in)
	if found != rfound || !z1.Equal(r1) || !z2.Equal(r2) {
		t.Fatalf("%s pair cut on %v: kernel (found %v, %v, %v), reference (found %v, %v, %v)", label, in, found, z1, z2, rfound, r1, r2)
	}
	return found
}

// checkVerifiers asserts that both verifiers accept and reject exactly as
// the references do, on every found witness and on mutations of it.
func checkVerifiers(t testing.TB, label string, in *instance.Instance) {
	t.Helper()
	for _, rule := range rules {
		w, found, _ := search(in, rule, 0)
		if !found {
			continue
		}
		for _, m := range mutations(in, w) {
			err, rerr := verify(in, rule, m), refVerify(in, rule, m)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("%s %s verifier on %v, witness %v: got %v, reference %v", label, ruleName(rule), in, m, err, rerr)
			}
		}
	}
}

// mutations returns w, w with C1 and C2 swapped, and w with each node of G
// toggled in C1, in C2 and in B.
func mutations(in *instance.Instance, w cutsearch.Witness) []cutsearch.Witness {
	out := []cutsearch.Witness{w, {C1: w.C2, C2: w.C1, B: w.B}}
	toggle := func(s nodeset.Set, v int) nodeset.Set {
		if s.Contains(v) {
			return s.Remove(v)
		}
		return s.Add(v)
	}
	in.G.Nodes().ForEach(func(v int) bool {
		out = append(out,
			cutsearch.Witness{C1: toggle(w.C1, v), C2: w.C2, B: w.B},
			cutsearch.Witness{C1: w.C1, C2: toggle(w.C2, v), B: w.B},
			cutsearch.Witness{C1: w.C1, C2: w.C2, B: toggle(w.B, v)})
		return true
	})
	return out
}

// TestConditionsMatchReference runs the Definition-10, pair-cut and
// verifier differentials on 1,200 seeded instances at every knowledge
// level and with partial views, a quarter of them on IDs spread over two
// or more words.
func TestConditionsMatchReference(t *testing.T) {
	trials := 1200
	if testing.Short() {
		trials = 300
	}
	r := rand.New(rand.NewSource(17))
	levels := append(gen.Levels(), partialViews)
	var cuts [2]int // Definition 10, pair cut
	for trial := 0; trial < trials; trial++ {
		level := levels[trial%len(levels)]
		n := 4 + r.Intn(8)
		span := n
		if trial%4 == 3 {
			span = 64 + r.Intn(130)
		}
		in, err := randomInstance(r, n, span, level)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (%v)", trial, level)
		for i, found := range [2]bool{checkDefinition10(t, label, in), checkPairCut(t, label, in)} {
			if found {
				cuts[i]++
			}
		}
		checkVerifiers(t, label, in)
	}
	for i, c := range cuts {
		if c < trials/10 || c > trials-trials/10 {
			t.Errorf("%s: %d of %d instances have a cut; the draw is too lopsided", [2]string{"definition 10", "pair cut"}[i], c, trials)
		}
	}
}

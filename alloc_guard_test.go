package rmt

// Tier-1 allocation guards for the PKA receiver hot path, warm and cold,
// the cut searches and the instance layer every request builds. The full benchguard (make benchguard) is opt-in because
// wall-clock numbers are too machine-sensitive to gate every PR — but
// allocation counts are not: they are deterministic modulo GC-driven pool
// evictions, so cheap AllocsPerRun checks can run in the ordinary test
// suite and catch the packed receiver, the word-level cut kernel or the
// row-based views and key writer regressing to per-run, per-candidate or
// per-edge heap churn.

import (
	"math/rand"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/cliutil"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// pkaRunAllocBudget is deliberately looser than the steady-state figure
// (~35 allocs/op in BENCH.json, guarded exactly by benchguard): the tier-1
// budget only has to catch the hot path falling off a cliff — a map
// rebuilt per run, a transcript recorded unconditionally — not one stray
// allocation, and the slack absorbs an unluckily timed GC emptying the
// run-state pool mid-measurement.
const pkaRunAllocBudget = 100

func TestPKARunAllocBudget(t *testing.T) {
	if raceEnabled {
		// sync.Pool randomly bypasses caching under the race detector, so
		// pooled run states look freshly allocated and the count is noise.
		t.Skip("allocation counts are not meaningful under -race")
	}
	in, err := benchdef.ChainInstance(3, 2, gen.Radius2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.DecisionOf(in.Receiver); !ok {
			t.Fatal("undecided")
		}
	}
	// Warm the run-state pool and the instance's memo caches so the
	// measurement sees the steady state a long-running caller sees.
	for i := 0; i < 3; i++ {
		run()
	}
	avg := testing.AllocsPerRun(20, run)
	if avg > pkaRunAllocBudget {
		t.Errorf("a PKA run allocates %.1f allocs/op, budget %d — the packed receiver hot path regressed", avg, pkaRunAllocBudget)
	}
}

// pkaColdRunAllocBudget bounds a PKA run on a fresh instance — what
// /v1/run and every new sweep instance pay — counting the instance build,
// with the receiver's memo and under DisableMemo. Counted when the adversary
// cover moved onto the cut kernel: 1,118 → 436 allocs with the memo and
// 1,076 → 393 without, of which building the instance and its Z_v is
// about 186. The budgets leave about a quarter of slack and stay under
// half the ⊕-fold cover's counts.
var pkaColdRunAllocBudget = map[bool]float64{false: 550, true: 495}

func TestPKAColdRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, nomemo := range []bool{false, true} {
		run := func() {
			in, err := benchdef.ChainInstance(3, 2, gen.Radius2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{DisableMemo: nomemo})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.DecisionOf(in.Receiver); !ok {
				t.Fatal("undecided")
			}
		}
		run()
		avg := testing.AllocsPerRun(20, run)
		if budget := pkaColdRunAllocBudget[nomemo]; avg > budget {
			t.Errorf("a cold PKA run (DisableMemo %v) allocates %.1f allocs/op, budget %.0f — the adversary cover allocates per candidate side again", nomemo, avg, budget)
		}
	}
}

// cutSearchAllocBudget bounds one cut search. The word-level kernel
// allocates its slab, the walk's rows, the walk's frame chunks beyond its
// first 16 frames and the witness sets — 5 allocs/op on the chimera
// fixture and 8 on the 240-node churn line, against 174 (RMT-cut) and 210
// (𝒵-pp cut) on the chimera for the ⊕-fold search it replaced. A
// per-candidate allocation would cost hundreds.
const cutSearchAllocBudget = 32

func TestCutSearchAllocBudget(t *testing.T) {
	// The fixture of the RMTCutCheck and ZppCutCheck micro rows.
	g, z, d, r := gen.ChimeraScaled(3)
	chimera, err := gen.Build(g, z, gen.AdHoc, d, r)
	if err != nil {
		t.Fatal(err)
	}
	// The RMTCutIncrFresh row's base revision: the 240-node line with a
	// corruptible middle relay, whose walk reaches depth ~120.
	const n = 240
	line, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		search func() bool
	}{
		{"FindRMTCut/chimera", func() bool { _, found := FindRMTCut(chimera); return found }},
		{"FindZppCut/chimera", func() bool { _, found := FindZppCut(chimera); return found }},
		{"FindRMTCut/churn-line", func() bool { _, found := FindRMTCut(line); return found }},
	} {
		if !tc.search() {
			t.Fatalf("%s: fixture must have a cut", tc.name)
		}
		avg := testing.AllocsPerRun(20, func() { tc.search() })
		if avg > cutSearchAllocBudget {
			t.Errorf("%s allocates %.1f allocs/op, budget %d — the cut kernel allocates per candidate again", tc.name, avg, cutSearchAllocBudget)
		}
	}
}

// instanceBuildAllocBudget bounds what every rmtd request pays before its
// cache lookup: parse the edge list, build the instance with its views at
// one knowledge level, and hash it with CanonicalKey. The fixture is a
// seeded G(14, 0.4) with singleton corruption on the relays. Counted when
// the instance layer moved onto words (views on shared rows, the key
// streamed by appends, Z_v left to first use), per level: adhoc
// 1,061 → 174, radius1 1,139 → 275, radius2 1,522 → 249, radius3
// 1,565 → 230, full 793 → 118. The budgets leave about a quarter of
// slack and stay under half the per-edge, per-node counts they replaced.
var instanceBuildAllocBudget = map[gen.Knowledge]float64{
	gen.AdHoc:         220,
	gen.Radius1:       345,
	gen.Radius2:       310,
	gen.Radius3:       290,
	gen.FullKnowledge: 150,
}

func TestInstanceBuildAllocBudget(t *testing.T) {
	const n = 14
	g := gen.RandomGNP(rand.New(rand.NewSource(1)), n, 0.4)
	text := cliutil.FormatEdgeList(g)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(0, n-1)))
	for _, level := range gen.Levels() {
		run := func() {
			g, err := graph.ParseEdgeList(text)
			if err != nil {
				t.Fatal(err)
			}
			in, err := gen.Build(g, z, level, 0, n-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(in.CanonicalKey()) != 64 {
				t.Fatal("malformed key")
			}
		}
		avg := testing.AllocsPerRun(20, run)
		if budget := instanceBuildAllocBudget[level]; avg > budget {
			t.Errorf("%s: parse + build + key allocates %.0f allocs/op, budget %.0f — the instance layer allocates per edge or per node again", level, avg, budget)
		}
	}
}

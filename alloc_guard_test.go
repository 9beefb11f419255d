package rmt

// Tier-1 allocation guards for the PKA receiver hot path and the cut
// searches. The full benchguard (make benchguard) is opt-in because
// wall-clock numbers are too machine-sensitive to gate every PR — but
// allocation counts are not: they are deterministic modulo GC-driven pool
// evictions, so cheap AllocsPerRun checks can run in the ordinary test
// suite and catch the packed receiver or the word-level cut kernel
// regressing to per-run or per-candidate heap churn.

import (
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/gen"
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
		res, err := RunPKA(in, "x", nil, PKAOptions{})
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
		t.Errorf("RunPKA allocates %.1f allocs/op, budget %d — the packed receiver hot path regressed", avg, pkaRunAllocBudget)
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

package rmt

// Tier-1 allocation guards for every protocol benchmark row, warm and
// cold, the cut searches and the instance layer every request builds. The
// full benchguard (make benchguard) is opt-in because wall-clock numbers
// are too machine-sensitive to gate every PR — but
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

// protocolAllocBudget bounds one run of every benchdef.ProtoBenches row,
// warm — one shared instance, whose run-state pool and memo caches the
// first runs fill — and cold — a fresh pb.Instance() per run, the build
// included, which is what /v1/run and every new sweep instance pay.
// Budgets sit about a quarter above the counts measured when protocol runs
// moved onto the sender tally, the one-pass loss sweeps and the one-pass
// G_M; a per-message or per-recipient allocation costs hundreds more on
// the Large rows.
var protocolAllocBudget = map[string]struct{ warm, cold float64 }{
	"PKARun":       {42, 485},
	"PKARunLarge":  {55, 9490},
	"ZCPARun":      {24, 98},
	"ZCPARunLarge": {285, 2810},
	"PPARun":       {88, 150},
	"BroadcastRun": {24, 98},
	"MBRBRun":      {58, 160},
	"MBRBRunLarge": {380, 3585},
	"SMTRun":       {92, 168},
	"SMTRunLarge":  {515, 820},
}

func TestProtocolAllocBudget(t *testing.T) {
	if raceEnabled {
		// sync.Pool randomly bypasses caching under the race detector, so
		// pooled run states look freshly allocated and the count is noise.
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, pb := range benchdef.ProtoBenches {
		t.Run(pb.Name, func(t *testing.T) {
			budget, ok := protocolAllocBudget[pb.Name]
			if !ok {
				t.Fatal("no allocation budget")
			}
			fresh := func() *Instance {
				in, err := pb.Instance()
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			run := func(in *Instance) {
				res, err := RunProtocol(pb.Protocol, in, "x", nil, pb.Opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := res.DecisionOf(in.Receiver); pb.MustDecide && !ok {
					t.Fatal("undecided")
				}
			}
			in := fresh()
			for i := 0; i < 3; i++ {
				run(in)
			}
			warm := testing.AllocsPerRun(20, func() { run(in) })
			cold := testing.AllocsPerRun(20, func() { run(fresh()) })
			if warm > budget.warm {
				t.Errorf("a warm run allocates %.0f allocs/op, budget %.0f", warm, budget.warm)
			}
			if cold > budget.cold {
				t.Errorf("a cold run allocates %.0f allocs/op, budget %.0f", cold, budget.cold)
			}
		})
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

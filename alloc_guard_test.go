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
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

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
// Warm budgets sit about a quarter above the counts measured when protocol
// runs moved onto the sender tally, the one-pass loss sweeps and the
// one-pass G_M; a per-message or per-recipient allocation costs hundreds
// more on the Large rows. Cold budgets sit about a quarter above the counts
// measured when the instance layer moved onto node-ordered rows,
// slab-built views and an indexed Z_v, per row before → after: PKARun
// 384 → 238, PKARunLarge 7,590 → 4,788, ZCPARun 78 → 49, ZCPARunLarge
// 2,247 → 263, PPARun 119 → 85, BroadcastRun 78 → 49, MBRBRun 126 → 65,
// MBRBRunLarge 2,783 → 239, SMTRun 134 → 93, SMTRunLarge 657 → 432; a
// table, row copy or set per node or edge costs hundreds more on the Large
// rows.
var protocolAllocBudget = map[string]struct{ warm, cold float64 }{
	"PKARun":       {42, 300},
	"PKARunLarge":  {55, 6000},
	"ZCPARun":      {24, 60},
	"ZCPARunLarge": {285, 330},
	"PPARun":       {88, 105},
	"BroadcastRun": {24, 60},
	"MBRBRun":      {58, 80},
	"MBRBRunLarge": {380, 300},
	"SMTRun":       {92, 115},
	"SMTRunLarge":  {515, 540},
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
			// AllocsPerRun pins one P; with the collector off too, no
			// collection empties the engine's run-state pool mid-count.
			warm, cold := func() (float64, float64) {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(20, func() { run(in) }), testing.AllocsPerRun(20, func() { run(fresh()) })
			}()
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
	// The RMTCutSolvable row's fixture: no cut, so every side is walked.
	solvable, err := gen.RandomInstance(rand.New(rand.NewSource(1)), 14, 0.4, 3, 0.3, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		search func() bool
		cut    bool
	}{
		{"FindRMTCut/chimera", func() bool { _, found := FindRMTCut(chimera); return found }, true},
		{"FindZppCut/chimera", func() bool { _, found := FindZppCut(chimera); return found }, true},
		{"FindRMTCut/churn-line", func() bool { _, found := FindRMTCut(line); return found }, true},
		{"FindRMTCut/solvable", func() bool { _, found := FindRMTCut(solvable); return found }, false},
	} {
		if found := tc.search(); found != tc.cut {
			t.Fatalf("%s: cut found = %v, want %v", tc.name, found, tc.cut)
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
// the instance layer moved onto node-ordered rows, slab-built views, a
// word-level key writer and a pooled hash, per level before → after: adhoc
// 165 → 15, radius1 266 → 16, radius2 240 → 16, radius3 221 → 14, full
// 109 → 9. The budgets leave about a quarter of slack; one allocation per
// node or edge would exceed every one of them.
var instanceBuildAllocBudget = map[gen.Knowledge]float64{
	gen.AdHoc:         19,
	gen.Radius1:       20,
	gen.Radius2:       20,
	gen.Radius3:       18,
	gen.FullKnowledge: 11,
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

// bytesPerRun returns the heap bytes one call of fn allocates, averaged
// over runs calls after a warm-up call. The collector is off and one P
// runs meanwhile, so sync.Pool hands the engine's run states back on every
// call: the count is what fn's code allocates, not whether a collection
// emptied a pool or a call ran on another P's pool.
func bytesPerRun(runs int, fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestInstanceBytesGrowLinearly: doubling an instance's node count at
// most about doubles what building it allocates, and what a cold PKA run
// on it allocates — no table per view sized by the largest ID, no scan of
// all of 𝒵 per node. The families are the lopsided relay chains {1, 1,
// 196} → {1, 1, 396} ad hoc and four 50-hop → 100-hop chains at radius 2.
// Before the instance layer kept node-ordered rows, slab-built views and
// an indexed Z_v, these grew 3.77× and 3.68× (builds) and 3.46× (cold PKA
// run); after, 2.14×, 2.04× and 2.05×.
func TestInstanceBytesGrowLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxGrowth = 2.2
	lopsided := func(long int) func() *Instance {
		return func() *Instance {
			in, err := benchdef.LopsidedChainInstance([]int{1, 1, long}, gen.AdHoc)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
	}
	chains := func(hops int) func() *Instance {
		return func() *Instance {
			in, err := benchdef.ChainInstance(4, hops, gen.Radius2)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
	}
	coldPKA := func(build func() *Instance) func() *Instance {
		return func() *Instance {
			in := build()
			res, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.DecisionOf(in.Receiver); !ok {
				t.Fatal("undecided")
			}
			return in
		}
	}
	for _, tc := range []struct {
		name          string
		small, double func() *Instance
	}{
		{"build lopsided 200 → 400 nodes, adhoc", lopsided(196), lopsided(396)},
		{"build 4 chains 200 → 400 nodes, radius2", chains(50), chains(100)},
		{"cold PKA run lopsided 200 → 400 nodes, adhoc", coldPKA(lopsided(196)), coldPKA(lopsided(396))},
	} {
		small := bytesPerRun(5, func() { tc.small() })
		double := bytesPerRun(5, func() { tc.double() })
		if growth := double / small; growth > maxGrowth {
			t.Errorf("%s: %.0f → %.0f bytes, %.2f× (at most %.1f×)", tc.name, small, double, growth, maxGrowth)
		}
		t.Logf("%s: %.0f → %.0f bytes, %.2f×", tc.name, small, double, double/small)
	}
}

// TestSparseHubBuildCost: a 24-node body whose hub is node 2^20 —
// 20 leaves of the hub plus 0-2 2-1, D = 0, R = 1 — costs what its size
// says, not its largest ID. Parse, build and CanonicalKey must allocate
// under 16 MB at adhoc and at full; with a table of MaxID+1 rows per view
// they allocated 636 MB at adhoc. The time taken is logged, not bounded:
// bytes are deterministic, wall-clock time on a shared machine is not.
func TestSparseHubBuildCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var b strings.Builder
	for leaf := 3; leaf < 23; leaf++ {
		fmt.Fprintf(&b, "%d-%d ", leaf, graph.MaxNodeID)
	}
	b.WriteString("0-2 2-1")
	edges := b.String()
	for _, level := range []gen.Knowledge{gen.AdHoc, gen.FullKnowledge} {
		run := func() {
			g, err := graph.ParseEdgeList(edges)
			if err != nil {
				t.Fatal(err)
			}
			z, err := cliutil.ParseStructure("")
			if err != nil {
				t.Fatal(err)
			}
			in, err := gen.Build(g, z, level, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(in.CanonicalKey()) != 64 {
				t.Fatal("malformed key")
			}
		}
		bytes := bytesPerRun(3, run)
		start := time.Now()
		run()
		elapsed := time.Since(start)
		if bytes > 16<<20 {
			t.Errorf("%s: parse + build + key of the hub body allocated %.1f MB (at most 16 MB)", level, bytes/(1<<20))
		}
		t.Logf("%s: parse + build + key of the hub body: %v, %.2f MB", level, elapsed, bytes/(1<<20))
	}
}

// applyDeltaBudget bounds one one-edge ad hoc delta on the 256-node
// path, the shape of a watch revision: the chord {127, 129} applied with
// gen.ApplyDelta (collector off, one P). Before a delta carried stars
// over, it rebuilt all 256 stars and checked them all, 71,712 B in 13
// allocs; now it builds and checks the 2 stars the chord reaches, 15,176
// B in 15. The budget sits about a quarter above; most of what is left
// is the clone of G's row table and the new γ's node table, 12 KB
// together. Rebuilding every star again would cost some 55 KB more.
const applyDeltaBytesBudget, applyDeltaAllocsBudget = 19_000, 19

func TestApplyDeltaAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 256
	in, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{AddEdges: [][2]int{{n/2 - 1, n/2 + 1}}}
	apply := func() {
		if _, err := gen.ApplyDelta(in, d, gen.AdHoc); err != nil {
			t.Fatal(err)
		}
	}
	bytes, allocs := bytesPerRun(20, apply), testing.AllocsPerRun(20, apply)
	t.Logf("%.0f bytes, %.0f allocs", bytes, allocs)
	if bytes > applyDeltaBytesBudget || allocs > applyDeltaAllocsBudget {
		t.Errorf("a one-edge delta allocates %.0f bytes in %.0f allocs, budget %d bytes in %d", bytes, allocs, applyDeltaBytesBudget, applyDeltaAllocsBudget)
	}
}

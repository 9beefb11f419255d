package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// requireSameRun asserts a memoized run is observably identical at the
// receiver to its reference run (record-free, or run alone): same
// decision, same decidedness, same round count.
func requireSameRun(t *testing.T, label string, in *instance.Instance, memo, ref *network.Result) {
	t.Helper()
	mv, mok := memo.DecisionOf(in.Receiver)
	fv, fok := ref.DecisionOf(in.Receiver)
	if mv != fv || mok != fok || memo.Rounds != ref.Rounds {
		t.Fatalf("%s: memoized run (decision %q/%v, %d rounds) != reference run (decision %q/%v, %d rounds)",
			label, mv, mok, memo.Rounds, fv, fok, ref.Rounds)
	}
}

// fullInterners returns a path and a claim-version interner already at
// capacity, shared by every record-free run: nothing ever interns into
// them, so concurrent runs only read them.
var fullInterners = sync.OnceValues(func() (*pathInterner, *verInterner) {
	vers := &verInterner{ids: make(map[string]int32, maxInternVers)}
	for i := 0; i < maxInternVers; i++ {
		// '#' appears in no rendered version key.
		vers.ids["#"+strconv.Itoa(i)] = int32(i)
	}
	return &pathInterner{keys: make([]string, maxInternPaths)}, vers
})

// recordFree is RMT-PKA without candidate records or relay caches, the
// reference the warm store is diffed against. Its receiver sits on full
// interners: no claim version interns, so no candidate is keyed and each
// is evaluated on a record that is not stored; no path interns, so every
// received path lands on the overflow lists and every fullness check
// streams G_M's paths against them — the evaluation a version spray drives
// the warm store into. Its relays carry no rebuild cache.
type recordFree struct{ Proto }

func (recordFree) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	procs := NewProcesses(in, xD, opts.Corrupt, opts)
	sh := sharedOf(in)
	for v, p := range procs {
		if rel, ok := p.(*Relay); ok && rel.cache != nil {
			cold := NewRelayAt(v, in.G.Neighbors(v), sh.infos[v])
			cold.horizon = rel.horizon
			procs[v] = cold
		}
	}
	rcv := procs[in.Receiver].(*Receiver)
	rcv.paths, rcv.vers = fullInterners()
	rcv.ownClaim.vid = -1
	return procs, nil
}

// runRecordFree is Run on the record-free reference.
func runRecordFree(in *instance.Instance, xD network.Value, corrupt map[int]network.Process, opts Options) (*network.Result, error) {
	if corrupt != nil {
		opts.Corrupt = corrupt
	}
	return protocol.Run(recordFree{}, in, xD, opts)
}

// memoEngines is the engine axis of the differential sweep. Async runs
// under the zero-fault SyncScheduler, which must be round-identical to
// lockstep; goroutine must be identical by the merge-in-ID-order argument.
var memoEngines = []struct {
	name   string
	engine network.Engine
}{
	{"lockstep", network.Lockstep},
	{"goroutine", network.Goroutine},
	{"async", network.Async},
}

type memoFixture struct {
	name string
	in   *instance.Instance
}

// memoFixtures builds every feasibility fixture at each knowledge level.
func memoFixtures(t *testing.T, levels ...gen.Knowledge) []memoFixture {
	t.Helper()
	var fixtures []memoFixture
	for _, level := range levels {
		for _, f := range feasibility.All() {
			in, err := f.Build(level)
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, memoFixture{fmt.Sprintf("%s@%v", f.Name, level), in})
		}
	}
	return fixtures
}

// TestReceiverMemoNeverChangesDecisions is the receiver-memoization
// equivalence property, run as a differential sweep: for every feasibility
// fixture (solvable and unsolvable alike), every maximal corruption, every
// strategy of the Byzantine zoo and every execution engine, RMT-PKA on the
// instance's warm store must be observably identical to the record-free
// reference — and every engine must agree with lockstep.
func TestReceiverMemoNeverChangesDecisions(t *testing.T) {
	fixtures := memoFixtures(t, gen.AdHoc)
	// Chimera is the knowledge-separation instance: unsolvable ad hoc but
	// solvable at radius 2, so the radius-2 build exercises the memo on a
	// deciding run the ad hoc build cannot produce.
	chimera, err := feasibility.MustByName(feasibility.Chimera).Build(gen.Radius2)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, memoFixture{"chimera@radius2", chimera})

	for _, fx := range fixtures {
		for _, m := range fx.in.MaximalCorruptions() {
			for name := range Strategies(fx.in, m, "forged") {
				var ref *network.Result
				for _, eng := range memoEngines {
					label := fmt.Sprintf("%s/%s/%s", fx.name, name, eng.name)
					// Strategy processes are stateful: build a fresh zoo per run.
					memo, err := Run(fx.in, "real", Strategies(fx.in, m, "forged")[name],
						Options{Engine: eng.engine})
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := runRecordFree(fx.in, "real", Strategies(fx.in, m, "forged")[name],
						Options{Engine: eng.engine})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRun(t, label, fx.in, memo, fresh)
					if ref == nil {
						ref = fresh
					} else {
						requireSameRun(t, label+" vs lockstep", fx.in, ref, fresh)
					}
				}
			}
		}
	}
}

// TestReceiverMemoNeverChangesDecisionsUnderHorizon is the same
// differential for Horizon-PKA, whose records hold the bounded-span slice
// of G_M in per-horizon stores: every feasibility fixture ad hoc and at
// radius 2, every maximal corruption, every strategy, horizons 3–5.
func TestReceiverMemoNeverChangesDecisionsUnderHorizon(t *testing.T) {
	runs, decided := 0, 0
	for _, fx := range memoFixtures(t, gen.AdHoc, gen.Radius2) {
		for _, m := range fx.in.MaximalCorruptions() {
			for name := range Strategies(fx.in, m, "forged") {
				for horizon := 3; horizon <= 5; horizon++ {
					opts := Options{Horizon: horizon}
					memo, err := Run(fx.in, "real", Strategies(fx.in, m, "forged")[name], opts)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := runRecordFree(fx.in, "real", Strategies(fx.in, m, "forged")[name], opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRun(t, fmt.Sprintf("%s/%s/horizon %d", fx.name, name, horizon), fx.in, memo, fresh)
					runs++
					if _, ok := memo.DecisionOf(fx.in.Receiver); ok {
						decided++
					}
				}
			}
		}
	}
	t.Logf("%d horizon runs compared, %d deciding", runs, decided)
	if decided < runs/4 || decided == runs {
		t.Fatalf("%d of %d horizon runs decide; the sweep no longer covers both outcomes", decided, runs)
	}
}

func TestReceiverMemoEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized memo-equivalence sweep")
	}
	r := rand.New(rand.NewSource(1606))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(3)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		d, rcv := 0, n-1
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(d, rcv)), 1+r.Intn(2), 0.4)
		in, err := instance.New(g, z, view.AdHoc(g), d, rcv)
		if err != nil {
			continue
		}
		corruptions := append([]nodeset.Set{nodeset.Empty()}, in.MaximalCorruptions()...)
		for _, m := range corruptions {
			memo, err := Run(in, "real", protocol.Silence(m), Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := runRecordFree(in, "real", protocol.Silence(m), Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "random", in, memo, fresh)
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d runs compared", checked)
	}
}

// newVersionSprayer corrupts node c to announce fresh, never-seen-before
// claims: a fake self-view with an edge to a fictitious node whose ID
// varies per run, plus a fabricated claim from that fictitious node. Every
// run therefore pushes two new claim versions and new trails into the
// instance's shared interners — the worst case for the warm store's
// memory, since nothing is ever reusable.
func newVersionSprayer(in *instance.Instance, c, ghost int, forged network.Value) *Forger {
	ghostView := graph.New()
	ghostView.AddEdge(in.Dealer, ghost)
	ghostView.AddEdge(ghost, c)
	ghostInfo := NodeInfo{
		Node: ghost,
		View: ghostView,
		Z:    adversary.Restricted{Domain: ghostView.Nodes(), Structure: adversary.Trivial()},
	}
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(ghost, c)
	selfInfo := NodeInfo{
		Node: c,
		View: fakeView,
		Z:    adversary.Restricted{Domain: fakeView.Nodes(), Structure: adversary.Trivial()},
	}
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll: []network.Payload{
			InfoMsg{Info: selfInfo, P: graph.Path{c}},
			InfoMsg{Info: ghostInfo, P: graph.Path{ghost, c}},
			ValueMsg{X: forged, P: graph.Path{in.Dealer, ghost, c}},
		},
	}
}

// TestVersionSprayStaysWithinMemoryCaps runs a version-spraying adversary
// for thousands of runs against one instance and asserts the shared warm
// store saturates at its documented caps instead of growing without bound
// — and that saturation is harmless: every run still decides the honest
// value via the two untouched relays, and spot checks equal the
// record-free reference.
func TestVersionSprayStaysWithinMemoryCaps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-run spray")
	}
	in := feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
	sh := sharedOf(in)
	const corruptNode = 1
	ghostBase := in.G.MaxID() + 1

	// Enough runs that the two fresh versions per run overflow the
	// claim-version interner (maxInternVers) with room to spare.
	sprayRuns := maxInternVers/2 + 256
	for i := 0; i < sprayRuns; i++ {
		// A handful of fresh dealer values sprays the prebuilt-payload cache
		// past maxDealerVals too; keeping most runs on one value keeps the
		// spray focused on the claim interners.
		xD := network.Value("real")
		if i < 4*maxDealerVals {
			xD = network.Value(fmt.Sprintf("real-%d", i))
		}
		corrupt := map[int]network.Process{
			corruptNode: newVersionSprayer(in, corruptNode, ghostBase+i, "forged"),
		}
		res, err := Run(in, xD, corrupt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := res.DecisionOf(in.Receiver); !ok || got != xD {
			t.Fatalf("spray run %d: decision = %q, %v; want %q", i, got, ok, xD)
		}
		// Spot-check packed ≡ record-free under the spray as well: the
		// memoized path must stay equivalent even while its caches are
		// saturating.
		if i%512 == 0 {
			fresh, err := runRecordFree(in, xD,
				map[int]network.Process{corruptNode: newVersionSprayer(in, corruptNode, ghostBase+i, "forged")},
				Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, fmt.Sprintf("spray run %d", i), in, res, fresh)
		}
	}

	if n := len(sh.vers.ids); n > maxInternVers {
		t.Errorf("claim-version interner grew to %d entries, cap %d", n, maxInternVers)
	} else if n < maxInternVers {
		t.Errorf("claim-version interner holds %d entries after %d spray runs — cap %d never exercised",
			n, sprayRuns, maxInternVers)
	}
	if n := len(sh.paths.keys); n > maxInternPaths {
		t.Errorf("path interner grew to %d entries, cap %d", n, maxInternPaths)
	}
	if n := sh.dealerVals.Len(); n != maxDealerVals {
		t.Errorf("dealer payload cache holds %d entries, cap %d", n, maxDealerVals)
	}
	// The spray runs without a horizon, so it only reaches horizon 0's
	// candidate store and relays.
	if n := sh.stores.Get(0, func() *candStore { return new(candStore) }).len(); n > maxMemoEntries {
		t.Errorf("candidate store grew to %d records, cap %d", n, maxMemoEntries)
	}
	in.G.Nodes().Minus(nodeset.Of(in.Dealer, in.Receiver)).ForEach(func(v int) bool {
		if n := sh.relay(in, v, 0).cache.Len(); n > maxRelayCache {
			t.Errorf("relay %d cache grew to %d payloads, cap %d", v, n, maxRelayCache)
		}
		return true
	})
}

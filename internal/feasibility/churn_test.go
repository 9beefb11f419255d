package feasibility_test

import (
	"os"
	"strconv"
	"testing"

	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/zcpa"
)

// TestIncrementalMatchesFreshAcrossChurn is the churn differential: over
// every feasibility fixture, CHURN_CHAINS (default 100) seeded random
// delta chains are applied step by step, and at every revision the
// incremental RMT-cut and 𝒵-pp-cut checkers must return exactly the fresh
// enumeration's verdict; incremental witnesses must independently verify.
// Chain seeds come from the eval.TrialSeed splitmix64 streams (stream =
// fixture index), so a failure replays from (fixture, chain) alone.
//
// At ad hoc knowledge the two checkers must also agree with each other at
// every revision — found, witness and repaired/fresh counts — which pins
// Repair as well as Search to the ad hoc identity rmtd relies on when one
// checker answers both verdicts.
//
// `make churnfuzz` scales the sweep up via CHURN_CHAINS / CHURN_STEPS.
func TestIncrementalMatchesFreshAcrossChurn(t *testing.T) {
	chains := envInt(t, "CHURN_CHAINS", 100)
	steps := envInt(t, "CHURN_STEPS", 6)
	levels := gen.Levels()
	for fi, f := range feasibility.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for chain := 0; chain < chains; chain++ {
				level := levels[chain%len(levels)]
				seed := eval.TrialSeed(2016, fi, chain)
				base, err := f.Build(level)
				if err != nil {
					t.Fatalf("chain %d: %v", chain, err)
				}
				deltas, err := gen.RandomDeltaChain(base, level, steps, seed)
				if err != nil {
					t.Fatalf("chain %d (seed %d): %v", chain, seed, err)
				}
				incRMT := core.NewIncrementalCut()
				incZpp := zcpa.NewIncrementalCut()
				cur := base
				for rev := 0; rev <= len(deltas); rev++ {
					if rev > 0 {
						cur, err = gen.ApplyDelta(cur, deltas[rev-1], level)
						if err != nil {
							t.Fatalf("chain %d rev %d (seed %d): %v", chain, rev, seed, err)
						}
					}
					freshRMT, freshFoundRMT := core.FindRMTCut(cur)
					incW, incFound := incRMT.Check(cur)
					if incFound != freshFoundRMT {
						t.Fatalf("chain %d rev %d (seed %d, level %s): incremental RMT-cut verdict %v != fresh %v",
							chain, rev, seed, level, incFound, freshFoundRMT)
					}
					if incFound {
						if err := core.VerifyRMTCut(cur, incW); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): incremental RMT witness invalid: %v", chain, rev, seed, err)
						}
						if err := core.VerifyRMTCut(cur, freshRMT); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): fresh RMT witness invalid: %v", chain, rev, seed, err)
						}
					}
					freshZpp, freshFoundZpp := zcpa.FindRMTZppCut(cur)
					incZ, incFoundZ := incZpp.Check(cur)
					if incFoundZ != freshFoundZpp {
						t.Fatalf("chain %d rev %d (seed %d, level %s): incremental 𝒵-pp verdict %v != fresh %v",
							chain, rev, seed, level, incFoundZ, freshFoundZpp)
					}
					if incFoundZ {
						if err := zcpa.VerifyZppCut(cur, incZ); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): incremental 𝒵-pp witness invalid: %v", chain, rev, seed, err)
						}
						if err := zcpa.VerifyZppCut(cur, freshZpp); err != nil {
							t.Fatalf("chain %d rev %d (seed %d): fresh 𝒵-pp witness invalid: %v", chain, rev, seed, err)
						}
					}
					if level == gen.AdHoc {
						// V(γ(u)) = N(u) ∪ {u} and u ∉ C2: the two
						// conditions test every side alike, so the two
						// checkers repair and search in step (DESIGN §29).
						if incFound != incFoundZ || incFound && !(incW.C1.Equal(incZ.C1) && incW.C2.Equal(incZ.C2) && incW.B.Equal(incZ.B)) {
							t.Fatalf("chain %d rev %d (seed %d): ad hoc RMT-cut checker (found %v, %v) differs from 𝒵-pp checker (found %v, %v)",
								chain, rev, seed, incFound, incW, incFoundZ, incZ)
						}
						rr, rf := incRMT.Stats()
						zr, zf := incZpp.Stats()
						if rr != zr || rf != zf {
							t.Fatalf("chain %d rev %d (seed %d): ad hoc RMT-cut checker repaired %d / searched %d, 𝒵-pp checker %d / %d",
								chain, rev, seed, rr, rf, zr, zf)
						}
					}
				}
				// The chain's key sequence must never collide with the base
				// key: cached step verdicts can't evict or shadow the base.
				for i, k := range instance.ChainKeys(base, deltas) {
					if k == base.CanonicalKey() {
						t.Fatalf("chain %d: chain key %d equals the base canonical key", chain, i)
					}
				}
			}
		})
	}
}

func envInt(t *testing.T, name string, def int) int {
	t.Helper()
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, s)
	}
	return n
}

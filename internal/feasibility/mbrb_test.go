package feasibility_test

import (
	"testing"

	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/protocol"
)

// TestMBRBPredicateFlipsAtBound pins the arithmetic side of the battery:
// for every boundary pair the predicate accepts n = 3t+2d+1, rejects
// n = 3t+2d, and the instance-level verdict agrees — with the t extracted
// from the adversary structure matching mbrb's quorum arithmetic.
func TestMBRBPredicateFlipsAtBound(t *testing.T) {
	for _, b := range feasibility.MBRBBoundaries() {
		if b.Doc == "" {
			t.Errorf("%s: missing Doc", b.Name)
		}
		if !feasibility.MBRBFeasible(b.FeasibleN(), b.T, b.D) {
			t.Errorf("%s: predicate rejects the just-feasible n=%d", b.Name, b.FeasibleN())
		}
		if feasibility.MBRBFeasible(b.InfeasibleN(), b.T, b.D) {
			t.Errorf("%s: predicate accepts the just-infeasible n=%d", b.Name, b.InfeasibleN())
		}
		feas, err := b.Feasible()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		infeas, err := b.Infeasible()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, c := range []struct {
			in       *instance.Instance
			feasible bool
		}{{feas, true}, {infeas, false}} {
			v, err := feasibility.MBRBVerdictFor(c.in, b.D)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if v.Feasible != c.feasible {
				t.Errorf("%s: verdict on n=%d is %v, want %v", b.Name, v.N, v.Feasible, c.feasible)
			}
			if v.T != b.T {
				t.Errorf("%s: verdict extracted t=%d, want %d", b.Name, v.T, b.T)
			}
			if got := mbrb.Threshold(c.in); got != b.T {
				t.Errorf("%s: mbrb.Threshold=%d disagrees with the battery's t=%d", b.Name, got, b.T)
			}
		}
	}
}

// TestMBRBBoundaryOperational pins the operational side: under the pair's
// worst-case adversary (t silent Byzantine players plus a d-victim eclipse)
// the just-feasible instance delivers x_D at every correct non-victim, and
// the just-infeasible instance delivers nowhere. The flip is exactly one
// node wide.
func TestMBRBBoundaryOperational(t *testing.T) {
	for _, b := range feasibility.MBRBBoundaries() {
		run := func(in *instance.Instance) map[int]network.Value {
			opts := protocol.Options{MABudget: b.D, Corrupt: protocol.Silence(b.Corrupt)}
			if len(b.Victims) > 0 {
				opts.MsgAdversary = network.NewEclipse(b.Victims...)
			}
			res, err := protocol.Run(mbrb.Proto{}, in, "x", opts)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if err := res.Metrics.Reconcile(); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
			return res.Decisions
		}

		feas, err := b.Feasible()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		decisions := run(feas)
		victims := map[int]bool{}
		for _, v := range b.Victims {
			victims[v] = true
		}
		want := 0
		for v := 0; v < b.FeasibleN(); v++ {
			if b.Corrupt.Contains(v) || victims[v] {
				continue
			}
			want++
			if got, ok := decisions[v]; !ok || got != "x" {
				t.Errorf("%s feasible: correct non-victim %d delivered %q, %v; want \"x\"",
					b.Name, v, got, ok)
			}
		}
		if len(decisions) != want {
			t.Errorf("%s feasible: %d deliveries, want %d", b.Name, len(decisions), want)
		}

		infeas, err := b.Infeasible()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if decisions := run(infeas); len(decisions) != 0 {
			t.Errorf("%s infeasible: %d players delivered one node under the bound, want none: %v",
				b.Name, len(decisions), decisions)
		}
	}
}

// TestMBRBVerdictErrors covers the predicate's operating assumptions.
func TestMBRBVerdictErrors(t *testing.T) {
	sparse := feasibility.MustByName(feasibility.TriplePath).MustBuild(gen.AdHoc)
	if _, err := feasibility.MBRBVerdictFor(sparse, 0); err == nil {
		t.Error("sparse instance accepted")
	}
	complete, err := feasibility.MBRBBoundaries()[0].Feasible()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feasibility.MBRBVerdictFor(complete, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

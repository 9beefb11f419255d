package feasibility

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/smt"
)

// TestSMTBoundaryAgreement walks every boundary pair and asserts, on both
// sides, that the predicate, the verdict, the protocol's planner, and an
// actual protocol run all agree: the feasible side plans and delivers the
// secret, the infeasible side is rejected with a CapsError everywhere.
func TestSMTBoundaryAgreement(t *testing.T) {
	for _, b := range SMTBoundaries() {
		sides := []struct {
			name  string
			point SMTBoundaryPoint
			want  bool
		}{
			{"feasible", b.Feasible, true},
			{"infeasible", b.Infeasible, false},
		}
		for _, s := range sides {
			in, err := s.point.Build()
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s.name, err)
			}
			if got := SMTFeasible(in, s.point.Listen); got != s.want {
				t.Errorf("%s/%s: SMTFeasible = %v, want %v", b.Name, s.name, got, s.want)
			}
			v := SMTVerdictFor(in, s.point.Listen)
			if v.Feasible != s.want {
				t.Errorf("%s/%s: verdict.Feasible = %v, want %v", b.Name, s.name, v.Feasible, s.want)
			}
			if s.want && len(v.Paths) == 0 {
				t.Errorf("%s/%s: feasible verdict carries no witness paths", b.Name, s.name)
			}
			if !s.want && !v.DisruptionFound && !v.SecrecyFound {
				t.Errorf("%s/%s: infeasible verdict carries no cut witness", b.Name, s.name)
			}

			_, planErr := smt.NewPlan(in, s.point.Listen)
			if got := planErr == nil; got != s.want {
				t.Errorf("%s/%s: smt.NewPlan feasible = %v, want %v (err: %v)", b.Name, s.name, got, s.want, planErr)
			}

			secret := network.Value("boundary-secret")
			res, runErr := protocol.Run(smt.Proto{}, in, secret, protocol.Options{Listen: s.point.Listen, Seed: 7})
			if s.want {
				if runErr != nil {
					t.Errorf("%s/%s: run failed: %v", b.Name, s.name, runErr)
					continue
				}
				if got := res.Decisions[in.Receiver]; got != secret {
					t.Errorf("%s/%s: receiver decided %q, want %q", b.Name, s.name, got, secret)
				}
			} else {
				if runErr == nil {
					t.Errorf("%s/%s: run succeeded on the infeasible side", b.Name, s.name)
				} else if !protocol.IsCapsError(runErr) {
					t.Errorf("%s/%s: infeasible run error is not a CapsError: %v", b.Name, s.name, runErr)
				}
			}
		}
	}
}

// TestSMTBoundariesAreOneSetWide pins the battery's construction contract:
// each pair's two sides differ by exactly one maximal adversary set.
func TestSMTBoundariesAreOneSetWide(t *testing.T) {
	for _, b := range SMTBoundaries() {
		fin, err := b.Feasible.Build()
		if err != nil {
			t.Fatal(err)
		}
		iin, err := b.Infeasible.Build()
		if err != nil {
			t.Fatal(err)
		}
		newSets := func(narrow, wide adversary.Structure) (int, bool) {
			fresh := 0
			for _, s := range wide.Maximal() {
				if !narrow.Contains(s) {
					fresh++
				}
			}
			return fresh, narrow.SubfamilyOf(wide)
		}
		widerL, subL := newSets(b.Feasible.Listen, b.Infeasible.Listen)
		widerZ, subZ := newSets(fin.Z, iin.Z)
		if !subL || !subZ {
			t.Errorf("%s: infeasible side does not extend the feasible side", b.Name)
		}
		if widerL+widerZ != 1 {
			t.Errorf("%s: infeasible side adds %d listening sets and %d corruption sets, want exactly 1 total",
				b.Name, widerL, widerZ)
		}
	}
}

// TestSMTVerdictWitnesses spot-checks the witness content on the extra-ear
// pair: feasible paths avoid the ground, and the infeasible cut names the
// wide ear.
func TestSMTVerdictWitnesses(t *testing.T) {
	b, ok := SMTBoundaryByName(SMTExtraEar)
	if !ok {
		t.Fatal("extra-ear boundary missing")
	}
	in, err := b.Feasible.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := SMTVerdictFor(in, b.Feasible.Listen)
	ground := in.Z.Ground()
	for _, p := range v.Paths {
		if ground.Intersects(p.Set()) {
			t.Errorf("witness path %v touches the corruption ground %v", p, ground)
		}
	}
	iv := SMTVerdictFor(in, b.Infeasible.Listen)
	if !iv.SecrecyFound {
		t.Fatal("infeasible extra-ear verdict has no secrecy cut")
	}
	if want := nodeset.Of(2, 3); !iv.SecrecyListen.Equal(want) {
		t.Errorf("secrecy cut blames listening set %v, want %v", iv.SecrecyListen, want)
	}
}

// TestSMTFeasibleChimera exercises the predicate off the battery on the
// Chimera worked example. The dealer's whole neighbourhood {1, 2, 3} is a
// corruption set, so Chimera is SMT-infeasible under every listening
// structure, the trivial one included, and that neighbourhood is the
// disruption cut. (The listening side of the predicate is pinned by the
// SMTExtraEar boundary pair.)
func TestSMTFeasibleChimera(t *testing.T) {
	g, z, d, r := gen.Chimera()
	in, err := instance.AdHoc(g, z, d, r)
	if err != nil {
		t.Fatal(err)
	}
	v := SMTVerdictFor(in, adversary.Trivial())
	if v.Feasible || !v.DisruptionFound || !v.DisruptionCut.Equal(nodeset.Of(1, 2, 3)) {
		t.Fatalf("chimera under trivial listening: feasible %v, disruption cut %v (found %v); want infeasible with cut {1, 2, 3}",
			v.Feasible, v.DisruptionCut, v.DisruptionFound)
	}
}

// pollCtx is a context whose Err reports context.Canceled from its
// (live+1)-th call on, counting the calls.
type pollCtx struct {
	context.Context
	live, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestSMTVerdictPollsOncePerSet: SMTVerdictCtx polls its context before
// the disruption check and before each maximal listening set's search in
// the secrecy scan and the planner. A cancelled context returns its error
// at the first poll, before any search; one cancelled at any later poll
// returns at that poll; a live one gives SMTVerdictFor's verdict, after
// 1 + 2|ℒ| polls on a feasible instance with |ℒ| maximal sets.
func TestSMTVerdictPollsOncePerSet(t *testing.T) {
	for _, b := range SMTBoundaries() {
		for _, side := range []SMTBoundaryPoint{b.Feasible, b.Infeasible} {
			in, err := side.Build()
			if err != nil {
				t.Fatal(err)
			}
			want := SMTVerdictFor(in, side.Listen)
			live := &pollCtx{Context: context.Background(), live: math.MaxInt}
			got, err := SMTVerdictCtx(live, in, side.Listen)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: live context gave %+v, %v; want %+v", b.Name, got, err, want)
			}
			if sets := len(side.Listen.Maximal()); want.Feasible && live.polls != 1+2*sets {
				t.Fatalf("%s: %d polls for %d listening sets, want %d", b.Name, live.polls, sets, 1+2*sets)
			}
			for k := 0; k < live.polls; k++ {
				c := &pollCtx{Context: context.Background(), live: k}
				if _, err := SMTVerdictCtx(c, in, side.Listen); !errors.Is(err, context.Canceled) || c.polls != k+1 {
					t.Fatalf("%s: cancelled at poll %d: %v after %d polls", b.Name, k+1, err, c.polls)
				}
			}
		}
	}
}

package zcpa_test

import (
	"context"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/zcpa"
)

// incrLine: the line with a corruptible middle relay — infeasible ad hoc
// (the relay is a one-node 𝒵-pp cut with C2 = ∅); see the core twin.
func incrLine(t testing.TB, n int) *instance.Instance {
	t.Helper()
	in, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestIncrementalZppCutRepairsInsteadOfEnumerating(t *testing.T) {
	in := incrLine(t, 12)
	ic := zcpa.NewIncrementalCut()
	w, found := ic.Check(in)
	if !found {
		t.Fatal("line with corruptible middle relay should be infeasible ad hoc")
	}
	if err := zcpa.VerifyZppCut(in, w); err != nil {
		t.Fatal(err)
	}
	cur := in
	for _, chord := range [][2]int{{0, 2}, {1, 3}, {0, 4}} {
		next, err := gen.ApplyDelta(cur, instance.Delta{AddEdges: [][2]int{chord}}, gen.AdHoc)
		if err != nil {
			t.Fatal(err)
		}
		w, found = ic.Check(next)
		if !found {
			t.Fatalf("chord %v flipped the verdict", chord)
		}
		if err := zcpa.VerifyZppCut(next, w); err != nil {
			t.Fatalf("repaired witness invalid after chord %v: %v", chord, err)
		}
		cur = next
	}
	if repaired, fresh := ic.Stats(); repaired != 3 || fresh != 1 {
		t.Fatalf("Stats() = (%d repaired, %d fresh), want (3, 1)", repaired, fresh)
	}
}

func TestIncrementalZppCutFallsBackWhenWitnessDies(t *testing.T) {
	in := incrLine(t, 6)
	ic := zcpa.NewIncrementalCut()
	if _, found := ic.Check(in); !found {
		t.Fatal("expected infeasible base")
	}
	next, err := gen.ApplyDelta(in, instance.Delta{AddEdges: [][2]int{{2, 4}}}, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := ic.Check(next); found {
		t.Fatal("detour around the corruptible relay should make the instance solvable")
	}
	w, found := zcpa.FindRMTZppCut(next)
	if found {
		t.Fatalf("fresh search disagrees: found %v", w)
	}
}

func TestIncrementalZppCutCtx(t *testing.T) {
	in := incrLine(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := zcpa.NewIncrementalCut()
	if _, _, err := fresh.CheckCtx(ctx, in); err == nil {
		t.Fatal("cancelled context should abort the search")
	}
	if w2, found, err := fresh.CheckCtx(context.Background(), in); err != nil || !found {
		t.Fatalf("retry failed: %v found=%v", err, found)
	} else if err := zcpa.VerifyZppCut(in, w2); err != nil {
		t.Fatal(err)
	}
}

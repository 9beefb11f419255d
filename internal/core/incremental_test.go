package core_test

import (
	"context"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/instance"
)

// incrLine builds the line 0—1—…—n-1 with a singleton corruption at the
// middle relay: infeasible at every knowledge level (the middle node is a
// one-node cut in 𝒵), and every chord added strictly on one side keeps the
// old witness repairable.
func incrLine(t testing.TB, n int) *instance.Instance {
	t.Helper()
	in, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestIncrementalCutRepairsInsteadOfEnumerating(t *testing.T) {
	in := incrLine(t, 12)
	ic := core.NewIncrementalCut()
	w, found := ic.Check(in)
	if !found {
		t.Fatal("line with corruptible middle relay should be infeasible")
	}
	if err := core.VerifyRMTCut(in, w); err != nil {
		t.Fatal(err)
	}
	// Dealer-side chords keep the witness valid: every revision must be
	// answered by repair, not fresh enumeration.
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
		if err := core.VerifyRMTCut(next, w); err != nil {
			t.Fatalf("repaired witness invalid after chord %v: %v", chord, err)
		}
		cur = next
	}
	if repaired, fresh := ic.Stats(); repaired != 3 || fresh != 1 {
		t.Fatalf("Stats() = (%d repaired, %d fresh), want (3, 1)", repaired, fresh)
	}
}

func TestIncrementalCutFallsBackWhenWitnessDies(t *testing.T) {
	in := incrLine(t, 6) // middle relay 3... n/2 = 3
	ic := core.NewIncrementalCut()
	if _, found := ic.Check(in); !found {
		t.Fatal("expected infeasible base")
	}
	// Bypass the corruptible relay: 2—4 detours around node 3, making the
	// instance solvable. Repair must fail and the fresh search must agree.
	next, err := gen.ApplyDelta(in, instance.Delta{AddEdges: [][2]int{{2, 4}}}, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := ic.Check(next); found {
		t.Fatal("detour should make the instance solvable")
	}
	if _, fresh := ic.Stats(); fresh != 2 {
		t.Fatalf("expected 2 fresh searches, got %d", fresh)
	}
	// And once solvable there is no certificate: the next revision is a
	// fresh search again, whose verdict matches FindRMTCut.
	back, err := gen.ApplyDelta(next, instance.Delta{RemoveEdges: [][2]int{{2, 4}}}, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	w, found := ic.Check(back)
	if !found {
		t.Fatal("removing the detour should restore infeasibility")
	}
	if err := core.VerifyRMTCut(back, w); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalCutCtxCancelLeavesStateRetryable(t *testing.T) {
	in := incrLine(t, 12)
	ic := core.NewIncrementalCut()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ic.CheckCtx(ctx, in); err == nil {
		t.Fatal("cancelled context should abort the search")
	}
	// Retry with a live context succeeds and is the checker's first result.
	w, found, err := ic.CheckCtx(context.Background(), in)
	if err != nil || !found {
		t.Fatalf("retry failed: %v found=%v", err, found)
	}
	if err := core.VerifyRMTCut(in, w); err != nil {
		t.Fatal(err)
	}
}

package feasibility_test

import (
	"testing"

	"rmt/internal/core"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

func TestFixturesBuildAtEveryLevel(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range feasibility.All() {
		if seen[f.Name] {
			t.Fatalf("duplicate fixture name %q", f.Name)
		}
		seen[f.Name] = true
		if f.Doc == "" {
			t.Errorf("%s: missing Doc", f.Name)
		}
		for _, level := range gen.Levels() {
			in, err := f.Build(level)
			if err != nil {
				t.Fatalf("%s at %v: %v", f.Name, level, err)
			}
			if in.Dealer != f.Dealer || in.Receiver != f.Receiver {
				t.Fatalf("%s at %v: terminals = (%d, %d), want (%d, %d)",
					f.Name, level, in.Dealer, in.Receiver, f.Dealer, f.Receiver)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, f := range feasibility.All() {
		got, ok := feasibility.ByName(f.Name)
		if !ok || got.Edges != f.Edges {
			t.Fatalf("ByName(%q) = %+v, %v", f.Name, got, ok)
		}
	}
	if _, ok := feasibility.ByName("nonesuch"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic on an unknown name")
		}
	}()
	feasibility.MustByName("nonesuch")
}

// TestRMTCutCharacterization pins Definition 3 against Theorems 3 and 5 on
// every fixture: the recorded solvability verdict, the cut finder's
// existence answer, and the cut verifier must all agree at every documented
// knowledge level.
func TestRMTCutCharacterization(t *testing.T) {
	for _, f := range feasibility.All() {
		for level, want := range f.PKASolvable {
			t.Run(f.Name+"/"+level.String(), func(t *testing.T) {
				in := f.MustBuild(level)
				if got := core.Solvable(in); got != want {
					t.Fatalf("Solvable = %v, want %v\n%s", got, want, f.Doc)
				}
				cut, found := core.FindRMTCut(in)
				if found == want {
					t.Fatalf("FindRMTCut found=%v contradicts solvable=%v (cut %v)", found, want, cut)
				}
				if found {
					if err := core.VerifyRMTCut(in, cut); err != nil {
						t.Fatalf("finder returned an unverifiable cut %v: %v", cut, err)
					}
					if !in.Z.Contains(cut.C1) {
						t.Fatalf("witness C1 = %v is not admissible", cut.C1)
					}
				}
			})
		}
	}
}

// TestZppCutCharacterization pins Definition 7 against Theorems 7 and 8 on
// the ad hoc build of every fixture.
func TestZppCutCharacterization(t *testing.T) {
	for _, f := range feasibility.All() {
		t.Run(f.Name, func(t *testing.T) {
			in := f.MustBuild(gen.AdHoc)
			want := f.ZCPASolvable
			if got := zcpa.Solvable(in); got != want {
				t.Fatalf("Solvable = %v, want %v\n%s", got, want, f.Doc)
			}
			cut, found := zcpa.FindRMTZppCut(in)
			if found == want {
				t.Fatalf("FindRMTZppCut found=%v contradicts solvable=%v (cut %v)", found, want, cut)
			}
			if found {
				if err := zcpa.VerifyZppCut(in, cut); err != nil {
					t.Fatalf("finder returned an unverifiable cut %v: %v", cut, err)
				}
			}
		})
	}
}

// TestKnowledgeMonotonicity: more topology knowledge never makes a solvable
// instance unsolvable — the verdicts along gen.Levels() are monotone. This
// is what makes recording only the documented endpoint levels sound.
func TestKnowledgeMonotonicity(t *testing.T) {
	for _, f := range feasibility.All() {
		t.Run(f.Name, func(t *testing.T) {
			prev := false
			for _, level := range gen.Levels() {
				got := core.Solvable(f.MustBuild(level))
				if prev && !got {
					t.Fatalf("solvable at the previous level but not at %v", level)
				}
				prev = got
			}
		})
	}
}

// TestOperationalAgreement replays the characterizations operationally: on
// each ad hoc fixture the protocols must actually withstand (or fail under)
// every maximal corruption exactly as the cut condition predicts — the
// tightness direction of Theorems 5 and 8 on the worked examples.
func TestOperationalAgreement(t *testing.T) {
	for _, f := range feasibility.All() {
		t.Run(f.Name+"/zcpa", func(t *testing.T) {
			in := f.MustBuild(gen.AdHoc)
			ok, err := protocol.Resilient(zcpa.Proto{}, in)
			if err != nil {
				t.Fatal(err)
			}
			if ok != f.ZCPASolvable {
				t.Fatalf("Z-CPA resilient = %v, cut condition says %v", ok, f.ZCPASolvable)
			}
		})
		if f.Name == feasibility.Layered {
			// The receiver's full-set search on the two-layer instance is the
			// suite's one exponential cell; PKA's operational behavior there
			// is pinned by the golden transcripts instead.
			continue
		}
		for level, want := range f.PKASolvable {
			t.Run(f.Name+"/pka/"+level.String(), func(t *testing.T) {
				ok, err := protocol.Resilient(core.Proto{}, f.MustBuild(level))
				if err != nil {
					t.Fatal(err)
				}
				if ok != want {
					t.Fatalf("RMT-PKA resilient = %v, cut condition says %v", ok, want)
				}
			})
		}
	}
}

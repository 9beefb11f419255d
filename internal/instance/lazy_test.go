package instance_test

import (
	"math/rand"
	"sync"
	"testing"

	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/ppa"
	"rmt/internal/zcpa"
)

// TestLazyStateConcurrentFirstUse: Z_v and the canonical key are built on
// first use, and /v1/run trials read them from several goroutines at once.
// Eight goroutines racing on a fresh instance must all see the values a
// sequential reader of an identical instance sees.
func TestLazyStateConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, z, d, rcv := randomTuple(r, 12, 90, true, false)
	for _, level := range gen.Levels() {
		ref, err := gen.Build(g, z, level, d, rcv)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := gen.Build(g, z, level, d, rcv)
		if err != nil {
			t.Fatal(err)
		}
		ids := g.SortedIDs()
		joint := nodeset.Of(ids[1], ids[len(ids)/2], ids[len(ids)-2])
		wantKey, wantJoint := ref.CanonicalKey(), ref.LocalKnowledge().JointOf(joint)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Vary the first call so every lazy path is someone's first use.
				if i%2 == 0 {
					if fresh.CanonicalKey() != wantKey {
						t.Error("concurrent CanonicalKey disagrees")
					}
				}
				for _, v := range ids {
					if !fresh.LocalStructure(v).Equal(ref.LocalStructure(v)) {
						t.Errorf("%s: concurrent Z_%d disagrees", level, v)
					}
				}
				lk := fresh.LocalKnowledge()
				if len(lk) != len(ids) {
					t.Errorf("%s: LocalKnowledge has %d entries, want %d", level, len(lk), len(ids))
				}
				if !lk.JointOf(joint).Equal(wantJoint) {
					t.Errorf("%s: concurrent JointOf disagrees", level)
				}
				if fresh.CanonicalKey() != wantKey {
					t.Errorf("%s: concurrent CanonicalKey disagrees", level)
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestCutSearchesLeaveZvUnbuilt: building, keying, both feasibility cut
// searches, their verifiers and PPA's pair cut read V(γ(v)) and 𝒵 only, so
// a feasibility request or a watch revision never pays for the local
// structures; a LocalStructure call builds the one Z_v it asks for.
func TestCutSearchesLeaveZvUnbuilt(t *testing.T) {
	g, z, d, rcv := gen.ChimeraScaled(2)
	for _, level := range gen.Levels() {
		in, err := gen.Build(g, z, level, d, rcv)
		if err != nil {
			t.Fatal(err)
		}
		in.CanonicalKey()
		if cut, found := core.FindRMTCut(in); found {
			if err := core.VerifyRMTCut(in, cut); err != nil {
				t.Fatalf("%s: %v", level, err)
			}
		}
		if cut, found := zcpa.FindRMTZppCut(in); found {
			if err := zcpa.VerifyZppCut(in, cut); err != nil {
				t.Fatalf("%s: %v", level, err)
			}
		}
		ppa.PairCut(in)
		if instance.LocalKnowledgeBuilt(in) || instance.LocalStructuresBuilt(in) > 0 {
			t.Fatalf("%s: the feasibility path built Z_v", level)
		}
		if !in.LocalStructure(d).Equal(z.RestrictTo(in.Gamma.NodesOf(d))) || instance.LocalStructuresBuilt(in) != 1 {
			t.Fatalf("%s: LocalStructure did not build Z_%d on first use", level, d)
		}
		if instance.LocalKnowledgeBuilt(in) {
			t.Fatalf("%s: LocalStructure(%d) built every node's Z_v", level, d)
		}
	}
}

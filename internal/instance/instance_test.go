package instance

import (
	"errors"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.ParseEdgeList("0-1 0-2 1-3 2-3")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValid(t *testing.T) {
	g := diamond(t)
	z := adversary.FromSlices([]int{1})
	in, err := New(g, z, view.AdHoc(g), 0, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if in.Dealer != 0 || in.Receiver != 3 || in.N() != 4 {
		t.Fatal("fields wrong")
	}
	if !strings.Contains(in.String(), "n=4") {
		t.Fatalf("String = %q", in.String())
	}
}

func TestNewValidation(t *testing.T) {
	g := diamond(t)
	z := adversary.FromSlices([]int{1})
	gamma := view.AdHoc(g)
	tests := []struct {
		name    string
		z       adversary.Structure
		d, r    int
		wantErr error
	}{
		{"dealer missing", z, 9, 3, ErrDealerMissing},
		{"receiver missing", z, 0, 9, ErrReceiverMissing},
		{"dealer == receiver", z, 0, 0, ErrDealerIsReceiver},
		{"corruptible dealer", adversary.FromSlices([]int{0}), 0, 3, ErrDealerCorruptib},
		{"corruptible receiver", adversary.FromSlices([]int{3}), 0, 3, ErrReceiverCorrupt},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(g, tt.z, gamma, tt.d, tt.r)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewRejectsNonNodeStructure(t *testing.T) {
	g := diamond(t)
	z := adversary.FromSlices([]int{55})
	if _, err := New(g, z, view.AdHoc(g), 0, 3); err == nil {
		t.Fatal("accepted structure over non-nodes")
	}
}

func TestNewRejectsPartialViewDomain(t *testing.T) {
	g := diamond(t)
	sub := graph.New()
	sub.AddNode(0)
	gamma, err := view.FromMap(map[int]*graph.Graph{0: sub})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, adversary.Trivial(), gamma, 0, 3); err == nil {
		t.Fatal("accepted view function not covering V(G)")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	g := diamond(t)
	MustNew(g, adversary.Trivial(), view.AdHoc(g), 0, 0)
}

func TestLocalAndJointStructure(t *testing.T) {
	g := diamond(t)
	z := adversary.FromSlices([]int{1}, []int{2})
	in := MustNew(g, z, view.AdHoc(g), 0, 3)
	// γ(3) = {1,2,3}; Z_3 = ⟨{1},{2}⟩ on that domain.
	r3 := in.LocalStructure(3)
	if !r3.Domain.Equal(nodeset.Of(1, 2, 3)) {
		t.Fatalf("Z_3 domain = %v", r3.Domain)
	}
	if !r3.Structure.Equal(adversary.FromSlices([]int{1}, []int{2})) {
		t.Fatalf("Z_3 = %v", r3.Structure)
	}
	// Unknown node → identity.
	if !in.LocalStructure(42).Equal(adversary.Identity()) {
		t.Fatal("unknown node local structure not identity")
	}
	// Joint of {3} is Z_3 itself.
	if !in.LocalKnowledge().JointOf(nodeset.Of(3)).Equal(r3) {
		t.Fatal("JointOf({3}) != Z_3")
	}
}

func TestAdmissibleAndMaximal(t *testing.T) {
	g := diamond(t)
	z := adversary.FromSlices([]int{1, 2})
	in := MustNew(g, z, view.AdHoc(g), 0, 3)
	if !in.Admissible(nodeset.Of(1)) || !in.Admissible(nodeset.Empty()) {
		t.Fatal("Admissible too strict")
	}
	if in.Admissible(nodeset.Of(3)) {
		t.Fatal("Admissible too lax")
	}
	max := in.MaximalCorruptions()
	if len(max) != 1 || !max[0].Equal(nodeset.Of(1, 2)) {
		t.Fatalf("MaximalCorruptions = %v", max)
	}
	if !in.HonestNodes(nodeset.Of(1)).Equal(nodeset.Of(0, 2, 3)) {
		t.Fatal("HonestNodes wrong")
	}
}

func TestAdHocConstructor(t *testing.T) {
	g := diamond(t)
	in, err := AdHoc(g, adversary.FromSlices([]int{1}), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Gamma.NodesOf(0).Equal(nodeset.Of(0, 1, 2)) {
		t.Fatal("AdHoc constructor views wrong")
	}
}

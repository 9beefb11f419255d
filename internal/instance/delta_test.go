package instance_test

import (
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

func lineInstance(t *testing.T, n int, zSets ...[]int) *instance.Instance {
	t.Helper()
	in, err := gen.Build(gen.Line(n), adversary.FromSlices(zSets...), gen.AdHoc, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// adhocView rebuilds every ad hoc view, as rmt.ApplyDelta's wrapper of a
// caller's view function does.
func adhocView(g *graph.Graph, _ view.Function, _ nodeset.Set) (view.Function, nodeset.Set) {
	return view.AdHoc(g), g.Nodes()
}

func TestDeltaCanonicalStringNormalizes(t *testing.T) {
	a := instance.Delta{
		AddEdges:    [][2]int{{5, 2}, {1, 3}, {2, 5}},
		RemoveEdges: [][2]int{{9, 8}},
		AddNodes:    []int{7, 4, 7},
		RemoveNodes: []int{6},
	}
	b := instance.Delta{
		AddEdges:    [][2]int{{1, 3}, {2, 5}},
		RemoveEdges: [][2]int{{8, 9}},
		AddNodes:    []int{4, 7},
		RemoveNodes: []int{6},
	}
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatalf("canonical strings differ:\n%q\n%q", a.CanonicalString(), b.CanonicalString())
	}
	if !strings.HasPrefix(a.CanonicalString(), "rmt-delta-v1\n") {
		t.Fatalf("missing version prefix: %q", a.CanonicalString())
	}
	c := instance.Delta{AddEdges: [][2]int{{1, 3}}}
	if a.CanonicalString() == c.CanonicalString() {
		t.Fatal("distinct deltas render identically")
	}
}

func TestChainKeyDistinctAndOrderSensitive(t *testing.T) {
	in := lineInstance(t, 5, []int{2})
	d1 := instance.Delta{AddEdges: [][2]int{{0, 2}}}
	d2 := instance.Delta{RemoveEdges: [][2]int{{1, 2}}}

	k1 := instance.ChainKey(in.CanonicalKey(), d1)
	if k1 == in.CanonicalKey() {
		t.Fatal("chain key equals the base key")
	}
	if instance.ChainKey(in.CanonicalKey(), d1) != k1 {
		t.Fatal("chain key is not deterministic")
	}
	// Even the empty delta moves the key: the chain identifies the edit
	// history, not the resulting graph.
	if instance.ChainKey(in.CanonicalKey(), instance.Delta{}) == in.CanonicalKey() {
		t.Fatal("empty delta left the chain key unchanged")
	}

	ab := instance.ChainKeys(in, []instance.Delta{d1, d2})
	ba := instance.ChainKeys(in, []instance.Delta{d2, d1})
	if ab[1] == ba[1] {
		t.Fatal("chain key ignores delta order")
	}
	if ab[0] != k1 {
		t.Fatal("ChainKeys disagrees with ChainKey")
	}
}

func TestDeltaValidateRejections(t *testing.T) {
	in := lineInstance(t, 5, []int{2})
	cases := []struct {
		name string
		d    instance.Delta
	}{
		{"self-loop", instance.Delta{AddEdges: [][2]int{{3, 3}}}},
		{"negative node", instance.Delta{AddNodes: []int{-1}}},
		{"absent edge", instance.Delta{RemoveEdges: [][2]int{{0, 3}}}},
		{"absent node", instance.Delta{RemoveNodes: []int{17}}},
		{"remove dealer", instance.Delta{RemoveNodes: []int{0}}},
		{"remove receiver", instance.Delta{RemoveNodes: []int{4}}},
		{"huge id", instance.Delta{AddNodes: []int{1 << 21}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(in); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.d)
		}
		if _, err := instance.Apply(in, tc.d, adhocView); err == nil {
			t.Errorf("%s: Apply accepted %+v", tc.name, tc.d)
		}
	}
	// A remove may consume an edge/node added by the same delta.
	ok := instance.Delta{AddNodes: []int{9}, AddEdges: [][2]int{{2, 9}}, RemoveNodes: []int{9}}
	if err := ok.Validate(in); err != nil {
		t.Errorf("same-delta add+remove rejected: %v", err)
	}
}

func TestApplyRebuildsViewsAndRestrictsStructure(t *testing.T) {
	in := lineInstance(t, 5, []int{1}, []int{2, 3})
	out, err := instance.Apply(in, instance.Delta{
		AddEdges:    [][2]int{{0, 2}},
		RemoveNodes: []int{3},
	}, adhocView)
	if err != nil {
		t.Fatal(err)
	}
	if out.G.HasNode(3) || !out.G.HasEdge(0, 2) || out.G.HasEdge(2, 3) {
		t.Fatalf("graph not edited: %v", out.G)
	}
	// Base instance untouched.
	if !in.G.HasNode(3) || in.G.HasEdge(0, 2) {
		t.Fatalf("base instance mutated: %v", in.G)
	}
	// Structure restricted to survivors: {2,3} shrinks to {2}.
	if out.Z.Ground().Contains(3) {
		t.Fatalf("structure still mentions removed node: %v", out.Z)
	}
	if !out.Z.Contains(nodeset.Of(2)) {
		t.Fatalf("restriction lost the surviving part of {2,3}: %v", out.Z)
	}
	// Views rebuilt from the new topology: node 0's ad hoc star now sees 2.
	if !out.Gamma.Of(0).HasEdge(0, 2) {
		t.Fatal("view of node 0 not rebuilt after edge addition")
	}
	if out.Gamma.Domain().Contains(3) {
		t.Fatal("view domain still contains removed node")
	}
}

func TestApplyChainMatchesStepwise(t *testing.T) {
	in := lineInstance(t, 6, []int{2}, []int{4})
	deltas := []instance.Delta{
		{AddEdges: [][2]int{{1, 3}}},
		{RemoveEdges: [][2]int{{2, 3}}},
		{AddNodes: []int{9}, AddEdges: [][2]int{{9, 4}}},
	}
	chained, err := instance.ApplyChain(in, deltas, adhocView)
	if err != nil {
		t.Fatal(err)
	}
	step := in
	for _, d := range deltas {
		step, err = instance.Apply(step, d, adhocView)
		if err != nil {
			t.Fatal(err)
		}
	}
	if chained.CanonicalKey() != step.CanonicalKey() {
		t.Fatal("ApplyChain disagrees with stepwise Apply")
	}
}

// TestApplyChecksBuiltViews: Apply checks every view its rebuild reports
// as built against the edited graph, as New does, so a rebuild that hands
// back the stars from before an edge removal is refused.
func TestApplyChecksBuiltViews(t *testing.T) {
	in := lineInstance(t, 5, []int{2})
	stale := func(g *graph.Graph, prev view.Function, _ nodeset.Set) (view.Function, nodeset.Set) {
		return prev, g.Nodes()
	}
	_, err := instance.Apply(in, instance.Delta{RemoveEdges: [][2]int{{1, 2}}}, stale)
	if err == nil || !strings.Contains(err.Error(), "non-edge 1-2") {
		t.Fatalf("Apply with stale views: %v, want a non-edge error", err)
	}
}

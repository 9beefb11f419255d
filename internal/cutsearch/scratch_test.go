package cutsearch_test

import (
	"fmt"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
)

// widthChain is a history on the weak diamond 0-2-1, 0-3-1 (D = 0, R = 1,
// 𝒵 = {{2}, {3}}, which has a cut) whose largest ID crosses 63/64 and
// 127/128 and back, so a checker's rows widen from one word to three and
// narrow again. Dangling relays on R's side keep the cut and put high IDs
// in its side B; a path through a high relay removes the cut. Each
// comment names the largest ID and the verdict.
var widthChain = []instance.Delta{
	{AddEdges: [][2]int{{1, 64}}},                  // 64, cut (repaired)
	{AddEdges: [][2]int{{64, 128}}},                // 128, cut (repaired)
	{AddEdges: [][2]int{{0, 128}}},                 // 128, no cut
	{RemoveEdges: [][2]int{{0, 128}}},              // 128, cut
	{AddEdges: [][2]int{{128, 190}}},               // 190, cut (repaired)
	{RemoveNodes: []int{128, 190}},                 // 64, cut (repaired)
	{AddEdges: [][2]int{{0, 64}}},                  // 64, no cut
	{RemoveNodes: []int{64}},                       // 3, cut
	{AddEdges: [][2]int{{1, 100}, {100, 127}}},     // 127, cut (repaired)
	{AddEdges: [][2]int{{127, 129}, {129, 0}}},     // 129, no cut
	{RemoveNodes: []int{129}},                      // 127, cut
	{RemoveNodes: []int{100, 127}},                 // 3, cut (repaired)
	{AddEdges: [][2]int{{2, 63}, {63, 1}}},         // 63, cut (repaired)
	{AddEdges: [][2]int{{0, 65}, {65, 63}}},        // 65, no cut
	{RemoveNodes: []int{65}, AddNodes: []int{200}}, // 200, cut
	{RemoveNodes: []int{200}},                      // 63, cut (repaired)
}

// TestIncrementalScratchAcrossRowWidths: one checker per rule and level
// checks widthChain, keeping its scratch from revision to revision while
// the rows widen and narrow. Every verdict must equal a fresh Search's and
// every witness must pass Verify, and both the repair and the search must
// have run on kept scratch. A checker that reused its rows without
// clearing them, or sized them from an earlier revision, fails here.
func TestIncrementalScratchAcrossRowWidths(t *testing.T) {
	g := graph.New()
	g.AddPath(0, 2, 1)
	g.AddPath(0, 3, 1)
	for _, level := range []gen.Knowledge{gen.AdHoc, gen.Radius1, gen.FullKnowledge} {
		base, err := gen.Build(g, adversary.FromSlices([]int{2}, []int{3}), level, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		revisions := []*instance.Instance{base}
		cur := base
		for i, d := range widthChain {
			if cur, err = gen.ApplyDelta(cur, d, level); err != nil {
				t.Fatalf("%v delta %d: %v", level, i+1, err)
			}
			revisions = append(revisions, cur)
		}
		for _, rule := range rules {
			ic := newIncremental(rule)
			var cuts int
			for i, in := range revisions {
				label := fmt.Sprintf("%v %s rev %d (largest ID %d)", level, ruleName(rule), i, in.G.MaxID())
				w, found := ic.check(in)
				fw, ffound, _ := search(in, rule, 0)
				if found != ffound {
					t.Fatalf("%s: incremental found %v (%v), fresh search found %v (%v)", label, found, w, ffound, fw)
				}
				if found {
					cuts++
					if err := verify(in, rule, w); err != nil {
						t.Fatalf("%s: witness %v: %v", label, w, err)
					}
				}
			}
			if repaired, fresh := ic.stats(); repaired < 8 || fresh < 9 || cuts < 13 {
				t.Fatalf("%v %s: %d repaired, %d fresh, %d cuts: the chain no longer exercises both paths", level, ruleName(rule), repaired, fresh, cuts)
			}
		}
	}
}

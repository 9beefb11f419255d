package cliutil

import (
	"fmt"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
)

func TestParseStructure(t *testing.T) {
	z, err := ParseStructure("1,2; 3 ;4,5")
	if err != nil {
		t.Fatal(err)
	}
	want := adversary.FromSlices([]int{1, 2}, []int{3}, []int{4, 5})
	if !z.Equal(want) {
		t.Fatalf("got %v, want %v", z, want)
	}
}

func TestParseStructureEmpty(t *testing.T) {
	z, err := ParseStructure("  ")
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(adversary.Trivial()) {
		t.Fatalf("got %v", z)
	}
}

func TestParseStructureErrors(t *testing.T) {
	for _, bad := range []string{"a", "1,x", "-3"} {
		if _, err := ParseStructure(bad); err == nil {
			t.Errorf("ParseStructure(%q) succeeded", bad)
		}
	}
}

func TestParseStructureRoundTrip(t *testing.T) {
	z := adversary.FromSlices([]int{1, 2}, []int{7})
	back, err := ParseStructure(FormatStructure(z))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(z) {
		t.Fatalf("round trip: %v != %v", back, z)
	}
}

func TestParseKnowledge(t *testing.T) {
	tests := map[string]gen.Knowledge{
		"adhoc": gen.AdHoc, "AD-HOC": gen.AdHoc,
		"r1": gen.Radius1, "radius2": gen.Radius2, "R3": gen.Radius3,
		"full": gen.FullKnowledge,
	}
	for in, want := range tests {
		got, err := ParseKnowledge(in)
		if err != nil || got != want {
			t.Errorf("ParseKnowledge(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseKnowledge("psychic"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestParseNodeSet(t *testing.T) {
	s, err := ParseNodeSet("3, 1 ,2")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(nodeset.Of(1, 2, 3)) {
		t.Fatalf("got %v", s)
	}
	empty, err := ParseNodeSet("")
	if err != nil || !empty.IsEmpty() {
		t.Fatal("empty parse wrong")
	}
	if _, err := ParseNodeSet("1,b"); err == nil {
		t.Fatal("bad node accepted")
	}
}

func TestFormatEdgeListRoundTrip(t *testing.T) {
	g, err := graph.ParseEdgeList("0-1 1-2 5")
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.ParseEdgeList(FormatEdgeList(g))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatalf("round trip: %v != %v", back, g)
	}
}

// TestNodeIDBound: every entry point for node IDs from outside — edge
// lists, structures, node sets and topology deltas — accepts
// graph.MaxNodeID and rejects one more, with its own error text.
func TestNodeIDBound(t *testing.T) {
	in, err := gen.Build(gen.Line(3), adversary.Trivial(), gen.AdHoc, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		parse func(id int) error
		want  string
	}{
		{"edge list", func(id int) error {
			_, err := graph.ParseEdgeList(fmt.Sprintf("0-%d", id))
			return err
		}, "graph: node 1048577 in edge exceeds the 1048576 ID limit"},
		{"structure", func(id int) error {
			_, err := ParseStructure(fmt.Sprintf("1;%d", id))
			return err
		}, `cliutil: bad node "1048577" in structure: node 1048577 exceeds the 1048576 ID limit`},
		{"node set", func(id int) error {
			_, err := ParseNodeSet(fmt.Sprintf("1,%d", id))
			return err
		}, `cliutil: bad node "1048577": node 1048577 exceeds the 1048576 ID limit`},
		{"delta", func(id int) error {
			return instance.Delta{AddEdges: [][2]int{{1, id}}}.Validate(in)
		}, "instance: delta add_edges node 1048577 exceeds the 1048576 ID limit"},
	}
	for _, c := range cases {
		if err := c.parse(graph.MaxNodeID); err != nil {
			t.Errorf("%s: the bound itself is rejected: %v", c.name, err)
		}
		if err := c.parse(graph.MaxNodeID + 1); err == nil || err.Error() != c.want {
			t.Errorf("%s: bound + 1 gave %v, want %q", c.name, err, c.want)
		}
	}
}

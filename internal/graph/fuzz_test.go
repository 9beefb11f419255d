package graph

import "testing"

// FuzzParseEdgeList checks that the parser never panics, that it agrees
// with the field-at-a-time reference parser — an Equal graph with one row
// per node, or the same error text — and that accepted inputs round-trip
// through the canonical edge-list rendering.
func FuzzParseEdgeList(f *testing.F) {
	for _, seed := range []string{
		"0-1 1-2",
		"0-1, 1-2; 7",
		"5",
		"",
		"10-11\n12-13",
		"0-1 0-1 1-0",
		"999-1000",
		"1-",
		"a-b",
		"-",
		"0--1",
		"1-1",
		"3-1048576 0-2;2-1\t7",
		"1048577",
		"+1-2",
		"é-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseEdgeList(s)
		ref, refErr := refParseEdgeList(s)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%q: error %v, reference %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameGraph(g, ref); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		// Accepted graphs must be well-formed and re-parseable.
		if g.NumNodes() < 0 || g.NumEdges() < 0 {
			t.Fatal("negative sizes")
		}
		for _, e := range g.Edges() {
			if e[0] == e[1] {
				t.Fatalf("self-loop %v survived", e)
			}
			if !g.HasEdge(e[1], e[0]) {
				t.Fatalf("asymmetric edge %v", e)
			}
		}
		rendered := renderEdgeList(g)
		back, err := ParseEdgeList(rendered)
		if err != nil {
			t.Fatalf("round trip parse failed on %q: %v", rendered, err)
		}
		if !back.Equal(g) {
			t.Fatalf("round trip changed the graph: %v vs %v", g, back)
		}
	})
}

func renderEdgeList(g *Graph) string {
	out := ""
	for _, e := range g.Edges() {
		out += itoa(e[0]) + "-" + itoa(e[1]) + " "
	}
	g.Nodes().ForEach(func(v int) bool {
		if g.Degree(v) == 0 {
			out += itoa(v) + " "
		}
		return true
	})
	if out == "" {
		return ""
	}
	return out[:len(out)-1]
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

// FuzzParseEdgeListEmpty ensures the empty-ish rendering path handles
// graphs with no content.
func TestRenderEdgeListEmpty(t *testing.T) {
	g, err := ParseEdgeList("")
	if err != nil {
		t.Fatal(err)
	}
	if renderEdgeList(g) != "" {
		t.Fatal("empty graph rendered non-empty")
	}
}

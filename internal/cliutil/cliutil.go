// Package cliutil holds the small parsing and formatting helpers shared by
// the command-line tools in cmd/.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// parseBoundedID parses a node ID no larger than graph.MaxNodeID.
func parseBoundedID(s string) (int, error) {
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if id < 0 {
		return 0, fmt.Errorf("negative node %d", id)
	}
	if id > graph.MaxNodeID {
		return 0, fmt.Errorf("node %d exceeds the %d ID limit", id, graph.MaxNodeID)
	}
	return id, nil
}

// ParseStructure parses an adversary structure written as semicolon-
// separated corruption sets of comma-separated node IDs, e.g. "1,2;3;4,5".
// An empty string yields the no-corruption structure.
func ParseStructure(s string) (adversary.Structure, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return adversary.Trivial(), nil
	}
	var sets []nodeset.Set
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		set := nodeset.Empty()
		for _, f := range strings.Split(part, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			id, err := parseBoundedID(f)
			if err != nil {
				return adversary.Structure{}, fmt.Errorf("cliutil: bad node %q in structure: %w", f, err)
			}
			set = set.Add(id)
		}
		sets = append(sets, set)
	}
	return adversary.FromSets(sets...), nil
}

// ParseKnowledge parses a knowledge level name.
func ParseKnowledge(s string) (gen.Knowledge, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "adhoc", "ad-hoc":
		return gen.AdHoc, nil
	case "radius1", "r1":
		return gen.Radius1, nil
	case "radius2", "r2":
		return gen.Radius2, nil
	case "radius3", "r3":
		return gen.Radius3, nil
	case "full":
		return gen.FullKnowledge, nil
	default:
		return 0, fmt.Errorf("cliutil: unknown knowledge level %q (want adhoc|radius1|radius2|radius3|full)", s)
	}
}

// ParseNodeSet parses a comma-separated list of node IDs.
func ParseNodeSet(s string) (nodeset.Set, error) {
	s = strings.TrimSpace(s)
	set := nodeset.Empty()
	if s == "" {
		return set, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := parseBoundedID(f)
		if err != nil {
			return nodeset.Set{}, fmt.Errorf("cliutil: bad node %q: %w", f, err)
		}
		set = set.Add(id)
	}
	return set, nil
}

// FormatStructure renders a structure in ParseStructure's syntax.
func FormatStructure(z adversary.Structure) string {
	var parts []string
	for _, m := range z.Maximal() {
		ids := make([]string, 0, m.Len())
		m.ForEach(func(v int) bool {
			ids = append(ids, strconv.Itoa(v))
			return true
		})
		parts = append(parts, strings.Join(ids, ","))
	}
	return strings.Join(parts, ";")
}

// FormatEdgeList renders a graph in graph.ParseEdgeList syntax.
type EdgeLister interface {
	Edges() [][2]int
	Nodes() nodeset.Set
	Degree(v int) int
}

// FormatEdgeList renders edges as "u-v ..." plus isolated nodes.
func FormatEdgeList(g EdgeLister) string {
	var parts []string
	for _, e := range g.Edges() {
		parts = append(parts, fmt.Sprintf("%d-%d", e[0], e[1]))
	}
	g.Nodes().ForEach(func(v int) bool {
		if g.Degree(v) == 0 {
			parts = append(parts, strconv.Itoa(v))
		}
		return true
	})
	return strings.Join(parts, " ")
}

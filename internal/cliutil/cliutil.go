// Package cliutil holds the text formats shared by the front ends — the
// command-line tools in cmd/ and rmtd — and the one resolver, ResolveRun,
// that turns a network.Blueprint into a run for each of them and for the
// wire engine's children.
package cliutil

import (
	"fmt"
	"slices"
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
// An empty string yields the no-corruption structure. Every ID is read
// first; then each set is built in place, its words carved from one slab.
func ParseStructure(s string) (adversary.Structure, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return adversary.Trivial(), nil
	}
	// ids holds every set's members, each set closed by -1.
	var buf [64]int
	ids := buf[:0]
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ";")
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		for fields, fmore := part, true; fmore; {
			var f string
			f, fields, fmore = strings.Cut(fields, ",")
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			id, err := parseBoundedID(f)
			if err != nil {
				return adversary.Structure{}, fmt.Errorf("cliutil: bad node %q in structure: %w", f, err)
			}
			ids = append(ids, id)
		}
		ids = append(ids, -1)
	}
	words, n, top := 0, 0, -1
	for _, id := range ids {
		if id >= 0 {
			top = max(top, id)
			continue
		}
		words += (top + 64) / 64
		n++
		top = -1
	}
	sl := nodeset.NewSlab(words)
	sets := make([]nodeset.Set, 0, n)
	for len(ids) > 0 {
		end := slices.Index(ids, -1)
		top := slices.Max(ids[:end+1])
		set := sl.Reserve((top + 64) / 64)
		for _, id := range ids[:end] {
			set.MutateAdd(id)
		}
		sets = append(sets, set)
		ids = ids[end+1:]
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
func FormatStructure(z adversary.Structure) string { return string(AppendStructure(nil, z)) }

// AppendStructure appends FormatStructure's text to dst: the maximal sets
// in canonical order, ';'-separated, each set's members in increasing
// order, ','-separated.
func AppendStructure(dst []byte, z adversary.Structure) []byte {
	for i, m := range z.Maximal() {
		if i > 0 {
			dst = append(dst, ';')
		}
		first := true
		m.ForEach(func(v int) bool {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = strconv.AppendInt(dst, int64(v), 10)
			return true
		})
	}
	return dst
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

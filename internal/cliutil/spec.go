package cliutil

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
)

// InstanceSpec is the parsed form of the textual instance format shared by
// the CLI tools:
//
//	# rmt instance v1
//	graph: 0-1 0-2 0-3 1-4 2-4 3-4
//	structure: 1;2;3
//	knowledge: adhoc
//	dealer: 0
//	receiver: 4
//
// Lines starting with '#' are comments; keys may appear in any order;
// structure defaults to no corruption, knowledge to adhoc, dealer to 0.
type InstanceSpec struct {
	Graph     *graph.Graph
	Z         adversary.Structure
	Knowledge gen.Knowledge
	Dealer    int
	Receiver  int
}

// ParseInstanceSpec parses the textual instance format.
func ParseInstanceSpec(text string) (InstanceSpec, error) {
	spec := InstanceSpec{
		Z:         adversary.Trivial(),
		Knowledge: gen.AdHoc,
		Dealer:    0,
		Receiver:  -1,
	}
	seenGraph := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, found := strings.Cut(line, ":")
		if !found {
			return InstanceSpec{}, fmt.Errorf("cliutil: line %d: missing ':' in %q", lineNo+1, line)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		value = strings.TrimSpace(value)
		var err error
		switch key {
		case "graph":
			spec.Graph, err = graph.ParseEdgeList(value)
			seenGraph = true
		case "structure":
			spec.Z, err = ParseStructure(value)
		case "knowledge":
			spec.Knowledge, err = ParseKnowledge(value)
		case "dealer":
			spec.Dealer, err = strconv.Atoi(value)
		case "receiver":
			spec.Receiver, err = strconv.Atoi(value)
		default:
			return InstanceSpec{}, fmt.Errorf("cliutil: line %d: unknown key %q", lineNo+1, key)
		}
		if err != nil {
			return InstanceSpec{}, fmt.Errorf("cliutil: line %d: %w", lineNo+1, err)
		}
	}
	if !seenGraph {
		return InstanceSpec{}, fmt.Errorf("cliutil: spec has no graph")
	}
	if spec.Receiver < 0 {
		return InstanceSpec{}, fmt.Errorf("cliutil: spec has no receiver")
	}
	return spec, nil
}

// Format renders the spec in the textual instance format; ParseInstanceSpec
// round-trips it.
func (s InstanceSpec) Format() string {
	var b strings.Builder
	b.WriteString("# rmt instance v1\n")
	fmt.Fprintf(&b, "graph: %s\n", FormatEdgeList(s.Graph))
	fmt.Fprintf(&b, "structure: %s\n", FormatStructure(s.Z))
	fmt.Fprintf(&b, "knowledge: %s\n", s.Knowledge)
	fmt.Fprintf(&b, "dealer: %d\n", s.Dealer)
	fmt.Fprintf(&b, "receiver: %d\n", s.Receiver)
	return b.String()
}

// Instance validates and builds the RMT instance the spec describes.
func (s InstanceSpec) Instance() (*instance.Instance, error) {
	return gen.Build(s.Graph, s.Z, s.Knowledge, s.Dealer, s.Receiver)
}

// LoadSpec returns the instance spec a front end describes: the spec file
// when file is set, and otherwise the one the parts spell out, in the
// graph.ParseEdgeList, ParseStructure and ParseKnowledge syntaxes, with
// knowledge "" meaning adhoc. rmtd's requests, rmtcheck and rmtsim all
// read instances through it.
func LoadSpec(file, edges, structure, knowledge string, dealer, receiver int) (InstanceSpec, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return InstanceSpec{}, err
		}
		return ParseInstanceSpec(string(data))
	}
	if strings.TrimSpace(edges) == "" {
		return InstanceSpec{}, errors.New("graph is required")
	}
	spec := InstanceSpec{Knowledge: gen.AdHoc, Dealer: dealer, Receiver: receiver}
	var err error
	if spec.Graph, err = graph.ParseEdgeList(edges); err != nil {
		return InstanceSpec{}, err
	}
	if spec.Z, err = ParseStructure(structure); err != nil {
		return InstanceSpec{}, err
	}
	if knowledge != "" {
		if spec.Knowledge, err = ParseKnowledge(knowledge); err != nil {
			return InstanceSpec{}, err
		}
	}
	return spec, nil
}

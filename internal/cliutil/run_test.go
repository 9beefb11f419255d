package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/protocol"
)

func diamondInstance(t *testing.T) (*instance.Instance, string) {
	t.Helper()
	spec, err := ParseInstanceSpec("graph: 0-1 0-2 1-3 2-3\nstructure: 1;2\nreceiver: 3\n")
	if err != nil {
		t.Fatal(err)
	}
	in, err := spec.Instance()
	if err != nil {
		t.Fatal(err)
	}
	return in, spec.Format()
}

// TestResolveRunRejections: every precondition a run needs is checked in
// ResolveRun, with an error that names what is wrong.
func TestResolveRunRejections(t *testing.T) {
	in, _ := diamondInstance(t)
	cases := []struct {
		name string
		bp   network.Blueprint
		want string
	}{
		{"unknown protocol", network.Blueprint{Protocol: "nope"}, `unknown protocol "nope"`},
		{"empty protocol", network.Blueprint{}, `unknown protocol ""`},
		{"unknown attack without corruption", network.Blueprint{Protocol: "pka", Attack: "nope"}, `unknown strategy "nope"`},
		{"negative corrupt ID", network.Blueprint{Protocol: "pka", Corrupt: []int{-1}}, "corrupt node -1 is not a node of G"},
		{"huge corrupt ID", network.Blueprint{Protocol: "pka", Corrupt: []int{1 << 36}}, "is not a node of G"},
		{"inadmissible set", network.Blueprint{Protocol: "pka", Corrupt: []int{1, 2}}, "not admissible"},
		{"bad listening structure", network.Blueprint{Protocol: "pka", Listen: "1,x"}, "listening structure"},
	}
	for _, tc := range cases {
		_, err := ResolveRun(tc.bp, in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRunOptions: each call builds a fresh strategy overlay and carries the
// listening structure, the seed, and the blueprint only when it has
// instance text; an empty attack means silent.
func TestRunOptions(t *testing.T) {
	in, text := diamondInstance(t)
	silent, err := ResolveRun(network.Blueprint{Protocol: "pka"}, in)
	if err != nil || silent.Strategy.Name() != "silent" {
		t.Fatalf("empty attack: %v, %v", silent, err)
	}
	bp := network.Blueprint{Protocol: "pka", Value: "x", Corrupt: []int{1}, Attack: "replayer", Forged: "f", Listen: "2", Seed: 9}
	r, err := ResolveRun(bp, in)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Options(protocol.Cell{Engine: network.Async, Schedule: "fifo", SchedSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Options(protocol.Cell{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Corrupt[1] == nil || a.Corrupt[1] == b.Corrupt[1] {
		t.Fatalf("overlays %p and %p: want two fresh processes", a.Corrupt[1], b.Corrupt[1])
	}
	if a.Scheduler == nil || a.Engine != network.Async || b.Scheduler != nil {
		t.Fatalf("cell not applied: %+v / %+v", a, b)
	}
	if a.Seed != 9 || FormatStructure(a.Listen) != "2" || a.Blueprint != nil {
		t.Fatalf("seed %d, listen %v, blueprint %v", a.Seed, a.Listen, a.Blueprint)
	}
	bp.Instance = text
	if r, err = ResolveRun(bp, in); err != nil {
		t.Fatal(err)
	}
	c, err := r.Options(protocol.Cell{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Blueprint == nil || c.Blueprint.Instance != text || c.Blueprint == &r.Blueprint {
		t.Fatalf("blueprint %+v: want a copy carrying the instance text", c.Blueprint)
	}
}

// TestLoadSpec: a file wins over the parts, knowledge "" means adhoc, and
// a missing graph is named.
func TestLoadSpec(t *testing.T) {
	spec, err := LoadSpec("", "0-1 1-2", "1", "", 0, 2)
	if err != nil || spec.Knowledge != gen.AdHoc || spec.Receiver != 2 || spec.Graph.NumNodes() != 3 {
		t.Fatalf("parts: %+v, %v", spec, err)
	}
	path := filepath.Join(t.TempDir(), "in.rmt")
	if err := os.WriteFile(path, []byte("graph: 0-1 1-2 2-3\nknowledge: full\nreceiver: 3\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	spec, err = LoadSpec(path, "", "x", "psychic", 7, 7)
	if err != nil || spec.Knowledge != gen.FullKnowledge || spec.Receiver != 3 {
		t.Fatalf("file: %+v, %v", spec, err)
	}
	for _, tc := range []struct{ edges, structure, knowledge, want string }{
		{" ", "", "", "graph is required"},
		{"0--", "", "", "bad edge"},
		{"0-1", "x", "", "structure"},
		{"0-1", "", "psychic", "unknown knowledge level"},
	} {
		if _, err := LoadSpec("", tc.edges, tc.structure, tc.knowledge, 0, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc, err, tc.want)
		}
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.rmt"), "", "", "", 0, 1); err == nil {
		t.Error("missing file accepted")
	}
}

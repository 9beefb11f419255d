package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunChimera(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 0-2 0-3 1-4 1-5 2-4 3-5 4-6 5-6",
		"-structure", "1;2;3",
		"-dealer", "0", "-receiver", "6",
		"-knowledge", "adhoc", "-design",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"UNSOLVABLE", "RMTCut", "minimal knowledge radius: 2",
		"feasible receivers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSolvable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 0-2 0-3 1-4 2-4 3-4",
		"-structure", "1;2;3",
		"-receiver", "4",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SOLVABLE — no RMT-cut") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                // missing graph
		{"-graph", "0-1"},                 // missing receiver
		{"-graph", "x", "-receiver", "1"}, // bad graph
		{"-graph", "0-1", "-receiver", "1", "-structure", "zz"},
		{"-graph", "0-1", "-receiver", "1", "-knowledge", "psychic"},
		{"-graph", "0-1", "-receiver", "9"}, // receiver not a node
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d: no error for %v", i, args)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/in.rmt"
	spec := "graph: 0-1 0-2 1-3 2-3\nstructure: 1;2\nreceiver: 3\n"
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-file", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "UNSOLVABLE") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunAdHocSolvableReportsAllConditions(t *testing.T) {
	// On a solvable ad hoc instance every characterization section must
	// agree: no RMT-cut, no Z-pp cut, no pair cut, radius 0 or more.
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 0-2 0-3 1-4 2-4 3-4",
		"-structure", "1;2;3",
		"-receiver", "4",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"RMT (partial knowledge): SOLVABLE",
		"RMT (ad hoc / Z-CPA):    SOLVABLE",
		"full-knowledge pair cut: none",
		"minimal knowledge radius:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFullKnowledgeSkipsZCPASection(t *testing.T) {
	// The Z-CPA condition is an ad hoc statement; at -knowledge full the
	// section must not appear, and the weak diamond's pair cut must.
	var sb strings.Builder
	err := run([]string{
		"-graph", "0-1 0-2 1-3 2-3",
		"-structure", "1;2",
		"-receiver", "3",
		"-knowledge", "full",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "Z-CPA") {
		t.Errorf("Z-CPA section shown at full knowledge:\n%s", out)
	}
	for _, want := range []string{
		"UNSOLVABLE",
		"full-knowledge pair cut: {1}",
		"minimal knowledge radius: none",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFromSpecFileWithKnowledge(t *testing.T) {
	// A spec file carries its own knowledge level; the chimera instance is
	// solvable at the radius-2 level the file records.
	dir := t.TempDir()
	path := dir + "/chimera.rmt"
	spec := "# rmt instance v1\n" +
		"graph: 0-1 0-2 0-3 1-4 2-4 1-5 3-5 4-6 5-6\n" +
		"structure: 1;2;3\nknowledge: radius2\ndealer: 0\nreceiver: 6\n"
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-file", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "knowledge=radius2") || !strings.Contains(out, "RMT (partial knowledge): SOLVABLE") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunFromMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", "/nonexistent/x.rmt"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestExitCodes pins the exit-status contract rmtsim and rmtbench share:
// 0 for a check that ran, 2 for every usage error.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-graph", "0-1 1-2", "-receiver", "2"}, 0},
		{[]string{"-knowledge", "psychic", "-graph", "0-1", "-receiver", "1"}, 2},
		{[]string{"-nope"}, 2},
		{[]string{"-graph", "0-1"}, 2},
		{[]string{"-graph", "0-1", "-receiver", "9"}, 2},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.rmt")}, 2},
	} {
		if got := exitCode(run(c.args, io.Discard)); got != c.want {
			t.Errorf("%v: exit %d, want %d", c.args, got, c.want)
		}
	}
	if got := exitCode(errors.New("internal error: found witness fails verification")); got != 1 {
		t.Errorf("failed check: exit %d, want 1", got)
	}
}

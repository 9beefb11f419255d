package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-trials", "6", "-seed", "11", "-workers", "2", "-out", "-"}, &sb)
	if err != nil {
		t.Fatalf("sweep failed: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, `"type":"run"`) {
		t.Fatalf("no run records in JSONL stream:\n%s", out)
	}
	if !strings.Contains(out, "0 violations") || !strings.Contains(out, "canary flagged") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestRunSubsetFlags(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-trials", "2", "-seed", "5",
		"-protocols", "pka", "-strategies", "value-flip,silent",
		"-engines", "lockstep",
	}, &sb)
	if err != nil {
		t.Fatalf("sweep failed: %v\noutput:\n%s", err, sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-engines", "warp"},
		{"-trials", "1", "-protocols", "nope"},
		{"-trials", "1", "-strategies", "nope"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// TestExitCodes pins the exit-status contract rmtsim and rmtbench share:
// 0 for a clean sweep, 2 for every usage error, 1 for a failed sweep.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-trials", "1", "-protocols", "pka", "-strategies", "value-flip", "-engines", "lockstep"}, 0},
		// A sweep narrowed to the silent adversary still runs each canary
		// under the strategy that fools it, so the oracle keeps its teeth.
		{[]string{"-trials", "1", "-protocols", "pka", "-strategies", "silent", "-engines", "lockstep"}, 0},
		// A sweep that cannot write its trace fails without being misused.
		{[]string{"-trials", "1", "-protocols", "pka", "-engines", "lockstep", "-out", filepath.Join(t.TempDir(), "missing", "out.jsonl")}, 1},
		{[]string{"-nope"}, 2},
		{[]string{"-engines", "nope"}, 2},
		{[]string{"-strategies", "nope"}, 2},
		{[]string{"-protocols", "nope"}, 2},
		{[]string{"-schedules", "nope"}, 2},
		{[]string{"-mabudgets", "x"}, 2},
	} {
		if got := exitCode(run(c.args, io.Discard)); got != c.want {
			t.Errorf("%v: exit %d, want %d", c.args, got, c.want)
		}
	}
}

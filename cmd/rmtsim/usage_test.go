package main

import (
	"errors"
	"strings"
	"testing"

	"rmt"
)

// TestRunPPAWithoutFullKnowledgeIsCapsError: PPA's receiver reads the
// global 𝒵, so an ad hoc instance is a capability mismatch — the same
// usage error (exit 2) rmtd answers with a 400 — rather than a run that
// prints CORRECT.
func TestRunPPAWithoutFullKnowledgeIsCapsError(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4",
		"-protocol", "ppa", "-knowledge", "adhoc",
	}, &sb)
	if !rmt.IsCapsError(err) {
		t.Fatalf("err = %v, want a caps error; output:\n%s", err, sb.String())
	}
	if errors.As(err, &runError{}) {
		t.Fatalf("caps rejection classified as run failure (exit 1): %v", err)
	}
}

// TestRunUnknownNamesAreUsageErrors: an unknown protocol or attack name is
// a usage error (exit 2), whether or not any node is corrupted; exit 1 is
// for failures of a validly specified run.
func TestRunUnknownNamesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4", "-protocol", "nope"},
		{"-graph", tripleGraph, "-structure", "1;2;3", "-receiver", "4", "-attack", "nope"},
	} {
		var sb strings.Builder
		switch err := run(args, &sb); {
		case err == nil:
			t.Errorf("%v: accepted; output:\n%s", args, sb.String())
		case errors.As(err, &runError{}):
			t.Errorf("%v: classified as run failure (exit 1): %v", args, err)
		case !strings.Contains(err.Error(), `"nope"`):
			t.Errorf("%v: error does not name the unknown name: %v", args, err)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeRun exercises the full driver at CI scale against an in-process
// server: all requests 200, hit ratio above the bar, byte identity holds.
func TestSmokeRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatalf("smoke run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"load check PASS", "byte-identity across worker counts PASS", "cache hit ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-concurrency", "0"}, &out); err == nil {
		t.Fatal("concurrency 0 should error")
	}
	if err := run([]string{"-fleet", "-addr", "localhost:1"}, &out); err == nil {
		t.Fatal("-fleet with -addr should error")
	}
}

// TestFleetSmokeRun exercises the fleet driver at CI scale: 3 in-process
// shards behind a router, zero drops, cross-shard peer cache hits,
// byte-identical bodies whichever shard answers, and one watch stream
// through the router and at every shard.
func TestFleetSmokeRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fleet", "-smoke"}, &out); err != nil {
		t.Fatalf("fleet smoke failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"load check PASS", "fleet byte-identity across shards PASS", "cross-shard peer cache hits", "fleet watch streams identical across router and shards PASS", "fleet check PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

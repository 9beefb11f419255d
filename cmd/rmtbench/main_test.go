package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "E1,F1", "-trials", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== E1") || !strings.Contains(out, "== F1") {
		t.Fatalf("missing tables:\n%s", out)
	}
	if strings.Contains(out, "== E8") {
		t.Fatal("ran tables outside -only")
	}
}

func TestRunWorkersFlagDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "E1", "-trials", "5"},
		// Every E7 run gets its own seeded schedule, so the direct and
		// simulated runs of a pair see one delivery order.
		{"-engine", "async", "-sched", "fifo", "-only", "E7", "-trials", "5"},
	} {
		var seq, par strings.Builder
		if err := run(append(args, "-workers", "1"), &seq); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, "-workers", "4"), &par); err != nil {
			t.Fatal(err)
		}
		if seq.String() != par.String() {
			t.Fatalf("%v: -workers changed table output:\n%s\nvs\n%s", args, seq.String(), par.String())
		}
	}
}

func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the micro-benchmark suite")
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var sb strings.Builder
	if err := run([]string{"-benchjson", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
	}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("BENCH.json is not valid JSON: %v\n%s", err, data)
	}
	if len(results) < 4 {
		t.Fatalf("only %d benchmark entries", len(results))
	}
	for _, r := range results {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Fatalf("degenerate entry %+v", r)
		}
	}
}

func TestRunNoMatch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "ZZ"}, &sb); err == nil {
		t.Fatal("no error for unmatched -only")
	}
}

func TestRunAllTablesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	var sb strings.Builder
	if err := run([]string{"-trials", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "F1", "F2"} {
		if !strings.Contains(sb.String(), "== "+id) {
			t.Errorf("missing table %s", id)
		}
	}
}

package cutsearch_test

import (
	"context"
	"runtime"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/cutsearch"
	"rmt/internal/gen"
	"rmt/internal/graph"
)

// TestSparseIDsCostLinearMemory pins that the kernel keeps a row per node,
// not per ID: on graphs whose largest ID is 2^15 a search or a repair must
// cost a few rows of W = 513 words. A row per ID would put about 134 MB in
// each per-node table.
func TestSparseIDsCostLinearMemory(t *testing.T) {
	const big = 1 << 15
	for _, tc := range []struct {
		edges string
		z     adversary.Structure
		found bool
	}{
		{"0-7 7-32768", adversary.FromSlices([]int{7}), true}, // C1 = {7}
		{"0-32768", adversary.FromSlices([]int{}), false},     // D–R edge: no cut
	} {
		g, err := graph.ParseEdgeList(tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		rowBytes := uint64(g.RowWidth() * 8)
		const budgetRows = 64
		for _, level := range []gen.Knowledge{gen.AdHoc, gen.FullKnowledge} {
			in, err := gen.Build(g, tc.z, level, 0, big)
			if err != nil {
				t.Fatal(err)
			}
			for _, rule := range rules {
				var w cutsearch.Witness
				var found bool
				allocated := bytesAllocated(func() {
					w, found, _, err = cutsearch.Search(context.Background(), in, rule, 0)
					if found {
						_, found = cutsearch.Repair(in, rule, w)
					}
				})
				if err != nil || found != tc.found {
					t.Fatalf("%q %v %s: found %v (err %v), want %v", tc.edges, level, ruleName(rule), found, err, tc.found)
				}
				if allocated > budgetRows*rowBytes {
					t.Errorf("%q %v %s: search and repair allocated %d bytes, budget %d rows of %d bytes",
						tc.edges, level, ruleName(rule), allocated, budgetRows, rowBytes)
				}
			}
		}
	}
}

// bytesAllocated returns the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

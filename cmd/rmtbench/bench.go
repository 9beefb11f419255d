package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"rmt"
	"rmt/internal/adversary"
	"rmt/internal/benchdef"
	"rmt/internal/gen"
	"rmt/internal/instance"
)

// benchResult is one line of BENCH.json — the machine-readable counterpart
// of `go test -bench . -benchmem` for the protocol hot paths.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func chimeraInstance(scale int) (*rmt.Instance, error) {
	g, z, d, r := gen.ChimeraScaled(scale)
	return gen.Build(g, z, gen.AdHoc, d, r)
}

// churnRevisions builds the RMTCutIncremental workload (the same one as
// internal/core's bench twin): the 240-node line with a corruptible middle
// relay — always infeasible — followed by 16 dealer-side chord revisions,
// each leaving the previous witness repairable.
func churnRevisions() ([]*rmt.Instance, error) {
	const n = 240
	base, err := gen.Build(gen.Line(n), adversary.FromSlices([]int{n / 2}), gen.AdHoc, 0, n-1)
	if err != nil {
		return nil, err
	}
	out := []*rmt.Instance{base}
	cur := base
	for i := 0; i < 16; i++ {
		cur, err = gen.ApplyDelta(cur, instance.Delta{AddEdges: [][2]int{{i, i + 2}}}, gen.AdHoc)
		if err != nil {
			return nil, err
		}
		out = append(out, cur)
	}
	return out, nil
}

// runBenches runs the micro-benchmark suite via testing.Benchmark, printing
// one line per benchmark as it completes. The protocol hot-path entries come
// from internal/benchdef — the same table bench_test.go runs as
// sub-benchmarks — so BENCH.json and `go test -bench` measure identical
// workloads by construction.
func runBenches(out io.Writer) ([]benchResult, error) {
	type namedBench struct {
		name string
		fn   func(b *testing.B)
	}
	benches := make([]namedBench, 0, len(benchdef.ProtoBenches)+2)
	for _, pb := range benchdef.ProtoBenches {
		in, err := pb.Instance()
		if err != nil {
			return nil, err
		}
		name, opts, mustDecide := pb.Protocol, pb.Opts, pb.MustDecide
		benches = append(benches, namedBench{pb.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rmt.RunProtocol(name, in, "x", nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				if mustDecide {
					if _, ok := res.DecisionOf(in.Receiver); !ok {
						b.Fatal("undecided")
					}
				}
			}
		}})
	}
	chimera, err := chimeraInstance(3)
	if err != nil {
		return nil, err
	}
	// A solvable ad hoc G(14, 0.4): the search walks every receiver side
	// and finds no cut.
	solvable, err := gen.RandomInstance(rand.New(rand.NewSource(1)), 14, 0.4, 3, 0.3, gen.AdHoc)
	if err != nil {
		return nil, err
	}
	benches = append(benches,
		namedBench{"RMTCutCheck", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rmt.FindRMTCut(chimera)
			}
		}},
		namedBench{"RMTCutSolvable", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, found := rmt.FindRMTCut(solvable); found {
					b.Fatal("solvable bench instance must have no RMT-cut")
				}
			}
		}},
		namedBench{"ZppCutCheck", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rmt.FindZppCut(chimera)
			}
		}})
	revisions, err := churnRevisions()
	if err != nil {
		return nil, err
	}
	benches = append(benches,
		namedBench{"RMTCutIncrFresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, found := rmt.FindRMTCut(revisions[i%len(revisions)]); !found {
					b.Fatal("churn bench instance must be infeasible")
				}
			}
		}},
		namedBench{"RMTCutIncremental", func(b *testing.B) {
			ic := rmt.IncrementalRMTCut{}
			if _, found := ic.Check(revisions[0]); !found {
				b.Fatal("churn bench instance must be infeasible")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, found := ic.Check(revisions[i%len(revisions)]); !found {
					b.Fatal("churn bench instance must be infeasible")
				}
			}
		}})
	results := make([]benchResult, 0, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		res := benchResult{
			Name:        bench.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(out, "%-16s %12.0f ns/op %8d B/op %6d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		results = append(results, res)
	}
	return results, nil
}

// writeBenchJSON runs the micro-benchmark suite and writes the results as a
// JSON array to path.
func writeBenchJSON(path string, out io.Writer) error {
	results, err := runBenches(out)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

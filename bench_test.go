package rmt

// One sub-benchmark per experiment table/figure of EXPERIMENTS.md
// (BenchmarkExperiments), plus micro-benchmarks for the protocol hot paths.
// Regenerate the printed tables themselves with: go run ./cmd/rmtbench
import (
	"io"
	"math/rand"
	"testing"

	"rmt/internal/benchdef"
	"rmt/internal/eval"
	"rmt/internal/gen"
	"rmt/internal/nodeset"
)

func benchParams() eval.Params { return eval.Params{Seed: 2016, Trials: 10} }

// BenchmarkExperiments times every experiment of eval.Experiments, one
// sub-benchmark per table ID; run one with e.g.
// go test -bench 'Experiments/E7$' .
func BenchmarkExperiments(b *testing.B) {
	for _, e := range eval.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(benchParams())
			}
		})
	}
}

// --- protocol micro-benchmarks -------------------------------------------

// BenchmarkProtocols runs the shared protocol hot-path table of
// internal/benchdef — the same table cmd/rmtbench snapshots into BENCH.json
// — as sub-benchmarks, so `go test -bench` and the committed baseline
// cannot drift apart. Run one entry with e.g.
// go test -bench 'Protocols/PKARun$' .
func BenchmarkProtocols(b *testing.B) {
	for _, pb := range benchdef.ProtoBenches {
		b.Run(pb.Name, func(b *testing.B) {
			in, err := pb.Instance()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunProtocol(pb.Protocol, in, "x", nil, pb.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if pb.MustDecide {
					if _, ok := res.DecisionOf(in.Receiver); !ok {
						b.Fatal("undecided")
					}
				}
			}
		})
	}
}

// BenchmarkMBRBRunAsync runs MBRB on K_28 on the async engine, one
// sub-benchmark per schedule, with a fresh scheduler seeded by the
// iteration. Every BenchmarkProtocols row runs on lockstep; here the
// delaying schedules deliver hundreds of messages per run to players that
// have already halted, so the engine's loss sweeps are on the path, and
// lost/op reports how many. Run one with e.g.
// go test -bench 'MBRBRunAsync/random$' .
func BenchmarkMBRBRunAsync(b *testing.B) {
	in, err := benchdef.CompleteInstance(28, gen.AdHoc)
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []string{"sync", "random", "fifo"} {
		b.Run(sched, func(b *testing.B) {
			lost := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewScheduler(sched, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunProtocol(ProtocolMBRB, in, "x", nil, RunOptions{Engine: Async, Scheduler: s, MABudget: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := res.DecisionOf(in.Receiver); !ok {
					b.Fatal("undecided")
				}
				lost += res.Metrics.MessagesLost
			}
			b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
		})
	}
}

// benchInstance builds 3 disjoint relay chains with singleton corruption.
// With hops = 2 the instance is ad hoc-UNSOLVABLE (chimera sets survive the
// neighborhood-only ⊕) but solvable at radius-2 knowledge; with hops = 1 it
// is solvable even ad hoc. The engine/attack/decider variants below pick
// the level that lets their protocol decide; the plain protocol runs live
// in BenchmarkProtocols via the shared table.
func benchInstance(b *testing.B, hops int, level gen.Knowledge) *Instance {
	b.Helper()
	g, d, r := gen.DisjointPaths(3, hops)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
	in, err := gen.Build(g, z, level, d, r)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkPKARunGoroutineEngine(b *testing.B) {
	in := benchInstance(b, 1, gen.AdHoc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProtocol(ProtocolPKA, in, "x", nil, RunOptions{Engine: Goroutine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPKAUnderSilentAttack(b *testing.B) {
	in := benchInstance(b, 1, gen.AdHoc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProtocol(ProtocolPKA, in, "x", SilentCorruption(NodeSet(1)), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZCPAWithPiDecider(b *testing.B) {
	in := benchInstance(b, 1, gen.AdHoc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProtocol(ProtocolZCPA, in, "x", nil, RunOptions{Decider: NewPiDecider(in)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMTCutCheck(b *testing.B) {
	g, z, d, r := gen.ChimeraScaled(3)
	in, err := gen.Build(g, z, gen.AdHoc, d, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindRMTCut(in)
	}
}

// BenchmarkRMTCutSolvable times a search that finds no cut, so it walks
// every receiver side: a solvable ad hoc G(14, 0.4).
func BenchmarkRMTCutSolvable(b *testing.B) {
	in, err := gen.RandomInstance(rand.New(rand.NewSource(1)), 14, 0.4, 3, 0.3, gen.AdHoc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := FindRMTCut(in); found {
			b.Fatal("solvable bench instance must have no RMT-cut")
		}
	}
}

func BenchmarkZppCutCheck(b *testing.B) {
	g, z, d, r := gen.ChimeraScaled(3)
	in, err := gen.Build(g, z, gen.AdHoc, d, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindZppCut(in)
	}
}

func BenchmarkFeasibleReceivers(b *testing.B) {
	g, z, d, _ := gen.ChimeraScaled(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FeasibleReceivers(g, z, RadiusView(g, 2), d)
	}
}

func BenchmarkMinimalKnowledgeRadius(b *testing.B) {
	g, z, d, r := gen.ChimeraScaled(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := MinimalKnowledgeRadius(g, z, d, r); !ok {
			b.Fatal("unsolvable")
		}
	}
}

// Guard against accidentally huge table output: render once to io.Discard.
func BenchmarkRenderAllTables(b *testing.B) {
	tables := eval.RunAll(benchParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

package rmt

// One benchmark per experiment table/figure of EXPERIMENTS.md (E1–E8, F1,
// F2), plus micro-benchmarks for the protocol hot paths. Regenerate the
// printed tables themselves with: go run ./cmd/rmtbench
import (
	"io"
	"testing"

	"rmt/internal/benchdef"
	"rmt/internal/eval"
	"rmt/internal/gen"
	"rmt/internal/nodeset"
)

func benchParams() eval.Params { return eval.Params{Seed: 2016, Trials: 10} }

// --- one bench per table/figure -----------------------------------------

func BenchmarkE1JoinViewAlgebra(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E1JoinAlgebra(benchParams())
	}
}

func BenchmarkE2PKATightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E2PKATightness(benchParams())
	}
}

func BenchmarkE3PKAUnderAttack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E3Safety(benchParams())
	}
}

func BenchmarkE4ZCPATightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E4ZCPATightness(benchParams())
	}
}

func BenchmarkE5KnowledgeSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E5KnowledgeSweep(benchParams())
	}
}

func BenchmarkE6MinimalKnowledge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E6MinimalKnowledge(benchParams())
	}
}

func BenchmarkE7DecisionProtocol(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E7DecisionProtocol(benchParams())
	}
}

func BenchmarkE8Scaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E8Scaling(benchParams())
	}
}

func BenchmarkE9BroadcastTightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E9BroadcastTightness(benchParams())
	}
}

func BenchmarkE10HorizonAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E10HorizonAblation(benchParams())
	}
}

func BenchmarkE11RepresentationAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E11RepresentationAblation(benchParams())
	}
}

func BenchmarkE12Discovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E12Discovery(benchParams())
	}
}

func BenchmarkF1BasicInstances(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.F1BasicFrontier(benchParams())
	}
}

func BenchmarkF2IndistinguishableRuns(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.F2IndistinguishableRuns(benchParams())
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

func BenchmarkE13Exhaustive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.E13Exhaustive(benchParams())
	}
}

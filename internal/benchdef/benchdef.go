// Package benchdef declares the protocol hot-path benchmark table shared
// by the repo-root bench_test.go and cmd/rmtbench. Both suites iterate the
// same slice, so a new entry — a protocol variant or a new instance family
// — appears in `go test -bench` and in BENCH.json automatically, and the
// two cannot drift apart. The package deliberately depends only on
// internal packages: bench_test.go lives in package rmt, so importing the
// root package here would cycle.
package benchdef

import (
	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// ProtoBench declares one registry-resolved protocol run benchmark.
type ProtoBench struct {
	// Name is the stable benchmark name used in BENCH.json; renaming an
	// entry breaks comparability with committed baselines.
	Name string
	// Protocol is the registry name passed to protocol.RunByName.
	Protocol string
	// Instance builds the benchmark instance. Called once per suite run,
	// outside the timed loop.
	Instance func() (*instance.Instance, error)
	// Opts are the run options (engine, message-adversary budget, ...).
	Opts protocol.Options
	// MustDecide asserts the receiver decided after every run: a bench
	// that silently stopped deciding would be measuring a useless run.
	MustDecide bool
}

// ChainInstance builds `paths` disjoint relay chains of `hops`
// intermediate nodes each with singleton corruption on every relay — the
// classic RMT benchmark topology. With hops = 1 the instance is solvable
// even ad hoc; with hops = 2 it needs radius-2 knowledge (chimera sets
// survive the neighborhood-only join).
func ChainInstance(paths, hops int, level gen.Knowledge) (*instance.Instance, error) {
	g, d, r := gen.DisjointPaths(paths, hops)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
	return gen.Build(g, z, level, d, r)
}

// LopsidedChainInstance builds disjoint relay chains with per-chain
// lengths and singleton corruption. A length mix like {1, 1, 196} scales
// the node count into the hundreds while the two short chains still carry
// the decision, exercising the receiver's packed bookkeeping at size
// without exploding the search space.
func LopsidedChainInstance(lens []int, level gen.Knowledge) (*instance.Instance, error) {
	g, d, r := gen.DisjointPathsVar(lens)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
	return gen.Build(g, z, level, d, r)
}

// SMTInstance builds `paths` disjoint one-hop relay chains with corruption
// on relay 1 only — the remaining relays stay honest to carry shares. Pair
// with SMTListen for a plan of one share per honest relay.
func SMTInstance(paths int, level gen.Knowledge) (*instance.Instance, error) {
	g, d, r := gen.DisjointPaths(paths, 1)
	return gen.Build(g, gen.Singletons(nodeset.Of(1)), level, d, r)
}

// SMTListen builds the listening structure forcing a (paths-1)-share plan on
// SMTInstance(paths): one maximal set per honest relay, listening on every
// other honest relay, so the only witness path for that set runs through the
// spared relay — the share fan-out is what the smt benchmarks measure.
func SMTListen(paths int) adversary.Structure {
	sets := make([]nodeset.Set, 0, paths-1)
	for spared := 2; spared <= paths; spared++ {
		s := nodeset.Empty()
		for relay := 2; relay <= paths; relay++ {
			if relay != spared {
				s = s.Add(relay)
			}
		}
		sets = append(sets, s)
	}
	return adversary.FromSets(sets...)
}

// CompleteInstance builds the complete graph K_n with singleton corruption
// on every interior node (t = 1), dealer 0, receiver n-1 — the MBRB
// benchmark topology, where message count grows quadratically in n.
func CompleteInstance(n int, level gen.Knowledge) (*instance.Instance, error) {
	g := gen.Complete(n)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(0, n-1)))
	return gen.Build(g, z, level, 0, n-1)
}

// ProtoBenches is the protocol hot-path benchmark table. Every entry runs
// through the registry, so a new protocol variant becomes a table row, not
// a new code path. The PKARun/ZCPARun names predate the registry and stay
// stable for BENCH.json comparability. The *Large entries are the
// ≥200-node family: they separate asymptotic wins from constant-factor
// ones.
var ProtoBenches = []ProtoBench{
	{Name: "PKARun", Protocol: protocol.PKA,
		Instance:   func() (*instance.Instance, error) { return ChainInstance(3, 2, gen.Radius2) },
		MustDecide: true},
	{Name: "PKARunLarge", Protocol: protocol.PKA,
		Instance: func() (*instance.Instance, error) {
			return LopsidedChainInstance([]int{1, 1, 196}, gen.AdHoc)
		},
		MustDecide: true},
	{Name: "ZCPARun", Protocol: protocol.ZCPA,
		Instance: func() (*instance.Instance, error) { return ChainInstance(3, 1, gen.AdHoc) }},
	{Name: "ZCPARunLarge", Protocol: protocol.ZCPA,
		Instance: func() (*instance.Instance, error) { return ChainInstance(198, 1, gen.AdHoc) }},
	{Name: "PPARun", Protocol: protocol.PPA,
		Instance: func() (*instance.Instance, error) { return ChainInstance(3, 2, gen.FullKnowledge) }},
	{Name: "BroadcastRun", Protocol: protocol.Broadcast,
		Instance: func() (*instance.Instance, error) { return ChainInstance(3, 1, gen.AdHoc) }},
	// The MBRB family provisions its quorums for a budget-1 message
	// adversary (n > 3t + 2d with t = 1, d = 1 needs n ≥ 6) but runs with
	// no actual suppression: the hot path under measure is the
	// distinct-sender quorum bookkeeping over K_n's quadratic message load.
	{Name: "MBRBRun", Protocol: protocol.MBRB,
		Instance:   func() (*instance.Instance, error) { return CompleteInstance(6, gen.AdHoc) },
		Opts:       protocol.Options{MABudget: 1},
		MustDecide: true},
	{Name: "MBRBRunLarge", Protocol: protocol.MBRB,
		Instance:   func() (*instance.Instance, error) { return CompleteInstance(48, gen.AdHoc) },
		Opts:       protocol.Options{MABudget: 1},
		MustDecide: true},
	// The SMT family measures the share fan-out hot path: plan construction
	// per maximal listening set, one XOR share stream per path, and the
	// receiver's exact-path validation and reconstruction.
	{Name: "SMTRun", Protocol: protocol.SMT,
		Instance:   func() (*instance.Instance, error) { return SMTInstance(4, gen.AdHoc) },
		Opts:       protocol.Options{Listen: SMTListen(4), Seed: 2016},
		MustDecide: true},
	{Name: "SMTRunLarge", Protocol: protocol.SMT,
		Instance:   func() (*instance.Instance, error) { return SMTInstance(24, gen.AdHoc) },
		Opts:       protocol.Options{Listen: SMTListen(24), Seed: 2016},
		MustDecide: true},
}

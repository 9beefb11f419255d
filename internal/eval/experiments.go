package eval

import (
	"fmt"
	"math/rand"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// Params tunes the experiment suite. Zero values select the defaults used
// by EXPERIMENTS.md.
type Params struct {
	Seed   int64
	Trials int // random trials per configuration
	// Workers bounds the harness's worker pool; 0 uses one worker per
	// logical CPU. Tables are byte-identical at every worker count for a
	// fixed seed (see parallel.go).
	Workers int
	// Engine selects the execution engine for every protocol run of the
	// suite (nil = lockstep); resolve one with network.EngineByName. For
	// deterministic engines the tables are identical — that equivalence is
	// exactly what the conformance battery asserts.
	Engine network.Engine
	// Schedule names the async engine's delivery schedule ("" = the
	// zero-fault schedule); every run gets a fresh one seeded by Seed, so
	// tables stay independent of the worker count. Ignored by the
	// synchronous engines.
	Schedule string
}

// options builds one run's protocol.Options from the suite-wide engine
// selection, through a protocol.Cell so every run gets its own scheduler;
// experiment code fills in per-run fields. An unknown schedule name
// panics, like any other failed run of the suite.
func (p Params) options() protocol.Options {
	opts, err := protocol.Cell{Engine: p.Engine, Schedule: p.Schedule, SchedSeed: p.Seed}.Options()
	if err != nil {
		panic(err)
	}
	return opts
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 2016 // PODC 2016
	}
	if p.Trials == 0 {
		p.Trials = 60
	}
	return p
}

// Experiment is one table of the suite: its ID (as printed and as passed
// to rmtbench -only) and the function that computes it.
type Experiment struct {
	ID  string
	Run func(Params) *Table
}

// Experiments lists the suite in EXPERIMENTS.md order: RunAll, rmtbench
// and the experiment benchmarks all read it.
var Experiments = []Experiment{
	{"E1", E1JoinAlgebra},
	{"E2", E2PKATightness},
	{"E3", E3Safety},
	{"E4", E4ZCPATightness},
	{"E5", E5KnowledgeSweep},
	{"E6", E6MinimalKnowledge},
	{"E7", E7DecisionProtocol},
	{"E8", E8Scaling},
	{"E9", E9BroadcastTightness},
	{"E10", E10HorizonAblation},
	{"E11", E11RepresentationAblation},
	{"E12", E12Discovery},
	{"E13", E13Exhaustive},
	{"F1", F1BasicFrontier},
	{"F2", F2IndistinguishableRuns},
}

// RunAll executes every experiment and returns the tables in index order.
func RunAll(p Params) []*Table {
	tables := make([]*Table, len(Experiments))
	for i, e := range Experiments {
		tables[i] = e.Run(p)
	}
	return tables
}

// E1JoinAlgebra validates the ⊕ algebra (Theorems 1, 11, 13, 14 and
// Corollary 2) on random structures, counting violations (all must be 0).
func E1JoinAlgebra(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E1",
		Title:   "⊕ join-view algebra (Thms 1, 11, 13, 14; Cor 2)",
		Columns: []string{"property", "trials", "violations"},
	}
	type violations struct{ commut, assoc, idem, maximal int }
	results := runTrials(p, 1, func(r *rand.Rand, _ int) violations {
		draw := func() adversary.Restricted {
			n := 3 + r.Intn(6)
			u := nodeset.Universe(n + 2)
			dom := nodeset.Empty()
			u.ForEach(func(v int) bool {
				if r.Intn(2) == 0 {
					dom = dom.Add(v)
				}
				return true
			})
			return adversary.Restricted{Domain: dom, Structure: adversary.Random(r, dom, 1+r.Intn(4), 0.4)}
		}
		var out violations
		a, b, c := draw(), draw(), draw()
		if !adversary.Join(a, b).Equal(adversary.Join(b, a)) {
			out.commut++
		}
		if !adversary.Join(adversary.Join(a, b), c).Equal(adversary.Join(a, adversary.Join(b, c))) {
			out.assoc++
		}
		if !adversary.Join(a, a).Equal(a) {
			out.idem++
		}
		// Corollary 2 on restrictions of one real structure.
		u := nodeset.Universe(8)
		z := adversary.Random(r, u, 3, 0.4)
		da, db := randomSubset(r, u), randomSubset(r, u)
		j := adversary.Join(z.RestrictTo(da), z.RestrictTo(db))
		if !z.Restrict(da.Union(db)).SubfamilyOf(j.Structure) {
			out.maximal++
		}
		return out
	})
	var commut, assoc, idem, maximal int
	for _, v := range results {
		commut += v.commut
		assoc += v.assoc
		idem += v.idem
		maximal += v.maximal
	}
	t.AddRow("commutativity (Thm 11)", p.Trials, commut)
	t.AddRow("associativity (Thm 13)", p.Trials, assoc)
	t.AddRow("idempotence (Thm 14)", p.Trials, idem)
	t.AddRow("Z^{A∪B} ⊆ Z^A⊕Z^B (Cor 2)", p.Trials, maximal)
	t.Notes = append(t.Notes, "expected: 0 violations in every row")
	return t
}

func randomSubset(r *rand.Rand, u nodeset.Set) nodeset.Set {
	s := nodeset.Empty()
	u.ForEach(func(v int) bool {
		if r.Intn(2) == 0 {
			s = s.Add(v)
		}
		return true
	})
	return s
}

// E2PKATightness cross-validates Theorems 3 & 5: RMT-cut existence must
// equal RMT-PKA failure, per knowledge level, over random instances.
func E2PKATightness(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E2",
		Title:   "RMT-cut ⇔ RMT-PKA failure (Thms 3 & 5 tightness)",
		Columns: []string{"knowledge", "instances", "solvable", "unsolvable", "mismatches"},
	}
	type verdict struct{ solvable, mismatch bool }
	for ki, k := range []gen.Knowledge{gen.AdHoc, gen.Radius2, gen.FullKnowledge} {
		k := k
		results := runTrials(p, 200+ki, func(r *rand.Rand, _ int) verdict {
			in := drawInstance(r, func(r *rand.Rand) (*instance.Instance, error) {
				return gen.RandomInstance(r, 4+r.Intn(3), 0.5, 1+r.Intn(2), 0.4, k)
			})
			cutFree := core.Solvable(in)
			ok, err := protocol.Resilient(core.Proto{}, in)
			if err != nil {
				panic(err)
			}
			return verdict{solvable: cutFree, mismatch: cutFree != ok}
		})
		var solvable, unsolvable, mismatches int
		for _, v := range results {
			if v.mismatch {
				mismatches++
			}
			if v.solvable {
				solvable++
			} else {
				unsolvable++
			}
		}
		t.AddRow(k.String(), len(results), solvable, unsolvable, mismatches)
	}
	t.Notes = append(t.Notes, "expected: 0 mismatches — the condition is tight at every knowledge level")
	return t
}

// drawInstance retries a random-instance generator until it produces a valid
// instance. Retrying inside the trial (instead of skipping the trial, as the
// sequential harness did) keeps each trial self-contained so trials can run
// on any worker without sharing RNG state.
func drawInstance(r *rand.Rand, mk func(r *rand.Rand) (*instance.Instance, error)) *instance.Instance {
	for {
		in, err := mk(r)
		if err == nil {
			return in
		}
	}
}

// E3Safety runs the full Byzantine strategy zoo against RMT-PKA and counts
// wrong receiver decisions (Theorem 4: must be 0, even on unsolvable
// instances and against fictitious topology).
func E3Safety(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E3",
		Title:   "RMT-PKA safety under the Byzantine strategy zoo (Thm 4)",
		Columns: []string{"instance", "strategy", "runs", "correct", "undecided", "wrong"},
	}
	fixtures := safetyFixtures()
	for _, fx := range fixtures {
		perStrategy := map[string]*[3]int{}
		for _, m := range fx.in.MaximalCorruptions() {
			if m.IsEmpty() {
				continue
			}
			zoo := core.Strategies(fx.in, m, "forged")
			for name, corrupt := range zoo {
				opts := p.options()
				opts.Corrupt = corrupt
				res, err := protocol.RunByName(protocol.PKA, fx.in, "real", opts)
				if err != nil {
					panic(err)
				}
				c := perStrategy[name]
				if c == nil {
					c = &[3]int{}
					perStrategy[name] = c
				}
				if got, ok := res.DecisionOf(fx.in.Receiver); !ok {
					c[1]++
				} else if got == "real" {
					c[0]++
				} else {
					c[2]++
				}
			}
		}
		for _, name := range []string{"silent", "value-flip", "path-forgery", "ghost-node", "split-brain", "structure-liar"} {
			c := perStrategy[name]
			if c == nil {
				continue
			}
			t.AddRow(fx.name, name, c[0]+c[1]+c[2], c[0], c[1], c[2])
		}
	}
	t.Notes = append(t.Notes, "expected: 0 in the wrong column everywhere (safety)")
	t.Notes = append(t.Notes, "undecided > 0 is expected on the unsolvable fixture — safety over liveness")
	return t
}

type fixture struct {
	name string
	in   *instance.Instance
}

func safetyFixtures() []fixture {
	g1, d1, r1 := gen.DisjointPaths(3, 1)
	z1 := gen.Singletons(g1.Nodes().Minus(nodeset.Of(d1, r1)))
	in1, err := gen.Build(g1, z1, gen.AdHoc, d1, r1)
	if err != nil {
		panic(err)
	}
	g2, d2, r2 := gen.DisjointPaths(2, 1)
	z2 := gen.Singletons(g2.Nodes().Minus(nodeset.Of(d2, r2)))
	in2, err := gen.Build(g2, z2, gen.AdHoc, d2, r2)
	if err != nil {
		panic(err)
	}
	g3, z3, d3, r3 := gen.Chimera()
	in3, err := gen.Build(g3, z3, gen.Radius2, d3, r3)
	if err != nil {
		panic(err)
	}
	return []fixture{
		{"triple-path (solvable)", in1},
		{"weak-diamond (unsolvable)", in2},
		{"chimera radius-2 (solvable)", in3},
	}
}

// E4ZCPATightness cross-validates Theorems 7 & 8 in the ad hoc model:
// RMT Z-pp cut existence must equal Z-CPA failure.
func E4ZCPATightness(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E4",
		Title:   "RMT Z-pp cut ⇔ Z-CPA failure (Thms 7 & 8 tightness, ad hoc)",
		Columns: []string{"n", "instances", "solvable", "unsolvable", "mismatches"},
	}
	type verdict struct{ solvable, mismatch bool }
	for _, n := range []int{4, 5, 6, 7} {
		n := n
		results := runTrials(p, 400+n, func(r *rand.Rand, _ int) verdict {
			in := drawInstance(r, func(r *rand.Rand) (*instance.Instance, error) {
				return gen.RandomInstance(r, n, 0.5, 1+r.Intn(3), 0.4, gen.AdHoc)
			})
			cutFree := zcpa.Solvable(in)
			ok, err := protocol.Resilient(zcpa.Proto{}, in)
			if err != nil {
				panic(err)
			}
			return verdict{solvable: cutFree, mismatch: cutFree != ok}
		})
		var solvable, unsolvable, mismatches int
		for _, v := range results {
			if v.mismatch {
				mismatches++
			}
			if v.solvable {
				solvable++
			} else {
				unsolvable++
			}
		}
		t.AddRow(n, len(results), solvable, unsolvable, mismatches)
	}
	t.Notes = append(t.Notes, "expected: 0 mismatches")
	return t
}

// E5KnowledgeSweep measures solvability across knowledge levels on the
// chimera family and random graphs: more knowledge never hurts and the
// chimera family separates ad hoc from radius 2 (Cor 6 / uniqueness
// consequences).
func E5KnowledgeSweep(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E5",
		Title:   "solvability by knowledge level (uniqueness / Cor 6)",
		Columns: []string{"family", "adhoc", "radius1", "radius2", "radius3", "full", "monotone?"},
	}
	families := []struct {
		name      string
		instances func() []*instance.Instance
	}{
		{"chimera(k=2)", func() []*instance.Instance { return chimeraInstances(2) }},
		{"chimera(k=3)", func() []*instance.Instance { return chimeraInstances(3) }},
		{"chimera(k=4)", func() []*instance.Instance { return chimeraInstances(4) }},
		{"random(n=6)", func() []*instance.Instance { return randomPerLevel(p, 6, p.Trials/3) }},
	}
	for _, fam := range families {
		ins := fam.instances()
		counts := make([]int, len(gen.Levels()))
		monotone := true
		perInstance := len(ins) / len(gen.Levels())
		solv := parallelMap(len(ins), p.workers(), func(i int) bool { return core.Solvable(ins[i]) })
		for i := range ins {
			level := i % len(gen.Levels())
			if solv[i] {
				counts[level]++
			}
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				monotone = false
			}
		}
		frac := func(c int) string {
			if perInstance == 0 {
				return "-"
			}
			return fmt.Sprintf("%d/%d", c, perInstance)
		}
		t.AddRow(fam.name, frac(counts[0]), frac(counts[1]), frac(counts[2]), frac(counts[3]), frac(counts[4]), monotone)
	}
	t.Notes = append(t.Notes,
		"expected: chimera rows flip from unsolvable (adhoc) to solvable (radius2+)",
		"expected: monotone? = true — refining knowledge never loses solvability")
	return t
}

func chimeraInstances(k int) []*instance.Instance {
	g, z, d, r := gen.ChimeraScaled(k)
	out := make([]*instance.Instance, 0, len(gen.Levels()))
	for _, lvl := range gen.Levels() {
		in, err := gen.Build(g, z, lvl, d, r)
		if err != nil {
			panic(err)
		}
		out = append(out, in)
	}
	return out
}

func randomPerLevel(p Params, n, trials int) []*instance.Instance {
	perTrial := parallelMap(trials, p.workers(), func(t int) []*instance.Instance {
		r := rand.New(rand.NewSource(trialSeed(p.Seed, 500, t)))
		g := gen.RandomGNP(r, n, 0.5)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 2, 0.35)
		batch := make([]*instance.Instance, 0, len(gen.Levels()))
		for _, lvl := range gen.Levels() {
			in, err := gen.Build(g, z, lvl, 0, n-1)
			if err != nil {
				panic(err)
			}
			batch = append(batch, in)
		}
		return batch
	})
	var out []*instance.Instance
	for _, batch := range perTrial {
		out = append(out, batch...)
	}
	return out
}

// E6MinimalKnowledge finds, per instance family, the minimal view radius at
// which RMT becomes solvable — the paper's "minimal amount of initial
// knowledge" (end of Section 3).
func E6MinimalKnowledge(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E6",
		Title:   "minimal knowledge radius for solvability (Sec. 3)",
		Columns: []string{"family", "diameter", "minimal radius", "solvable at full?"},
	}
	cases := []struct {
		name   string
		mk     func() (*instance.Instance, func(radius int) *instance.Instance)
		maxRad int
	}{
		{"chimera(k=2)", chimeraAtRadius(2), 4},
		{"chimera(k=3)", chimeraAtRadius(3), 4},
		{"chimera(k=4)", chimeraAtRadius(4), 4},
		{"weak-diamond", weakDiamondAtRadius(), 3},
		{"triple-path", triplePathAtRadius(), 3},
	}
	for _, c := range cases {
		full, at := c.mk()
		minRadius := -1
		for rad := 0; rad <= c.maxRad; rad++ {
			if core.Solvable(at(rad)) {
				minRadius = rad
				break
			}
		}
		radStr := "unsolvable"
		if minRadius >= 0 {
			radStr = fmt.Sprint(minRadius)
		}
		t.AddRow(c.name, full.G.Diameter(), radStr, core.Solvable(full))
	}
	t.Notes = append(t.Notes,
		"chimera families need radius 2 — the receiver must see both halves of the chimera set",
		"weak-diamond stays unsolvable at every radius: the cut is information-theoretic")
	return t
}

func chimeraAtRadius(k int) func() (*instance.Instance, func(int) *instance.Instance) {
	return func() (*instance.Instance, func(int) *instance.Instance) {
		g, z, d, r := gen.ChimeraScaled(k)
		full, err := gen.Build(g, z, gen.FullKnowledge, d, r)
		if err != nil {
			panic(err)
		}
		return full, func(radius int) *instance.Instance {
			in, err := instance.New(g, z, radiusView(g, radius), d, r)
			if err != nil {
				panic(err)
			}
			return in
		}
	}
}

func weakDiamondAtRadius() func() (*instance.Instance, func(int) *instance.Instance) {
	return func() (*instance.Instance, func(int) *instance.Instance) {
		g, d, r := gen.DisjointPaths(2, 1)
		z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		full, err := gen.Build(g, z, gen.FullKnowledge, d, r)
		if err != nil {
			panic(err)
		}
		return full, func(radius int) *instance.Instance {
			in, err := instance.New(g, z, radiusView(g, radius), d, r)
			if err != nil {
				panic(err)
			}
			return in
		}
	}
}

func triplePathAtRadius() func() (*instance.Instance, func(int) *instance.Instance) {
	return func() (*instance.Instance, func(int) *instance.Instance) {
		g, d, r := gen.DisjointPaths(3, 1)
		z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		full, err := gen.Build(g, z, gen.FullKnowledge, d, r)
		if err != nil {
			panic(err)
		}
		return full, func(radius int) *instance.Instance {
			in, err := instance.New(g, z, radiusView(g, radius), d, r)
			if err != nil {
				panic(err)
			}
			return in
		}
	}
}

package eval

import (
	"fmt"
	"math/rand"

	"rmt/internal/adversary"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	_ "rmt/internal/ppa" // registers the PPA protocol
	"rmt/internal/protocol"
	"rmt/internal/selfred"
	"rmt/internal/view"
	"rmt/internal/zcpa"
)

// radiusView interpolates the knowledge levels continuously by hop radius.
func radiusView(g *graph.Graph, radius int) view.Function {
	return view.Radius(g, radius)
}

// E7DecisionProtocol validates Theorem 9's self-reduction: 𝒵-CPA with the
// Π-simulation decider must behave identically to 𝒵-CPA with the direct
// membership oracle, across random instances, corruption sets, and attack
// styles. The table reports the agreement rate (must be 100%) and the
// number of simulated e_0^l/e_1^l run pairs.
func E7DecisionProtocol(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E7",
		Title:   "Decision Protocol ≡ direct membership check (Thm 9 / Cor 10)",
		Columns: []string{"attack", "runs", "agree", "disagree", "simulated Π pairs"},
	}
	attacks := []string{"honest", "silent", "wrong-value"}
	type counter struct {
		runs, agree, pairs int
	}
	results := runTrials(p, 700, func(r *rand.Rand, _ int) map[string]counter {
		in := drawInstance(r, func(r *rand.Rand) (*instance.Instance, error) {
			return gen.RandomInstance(r, 4+r.Intn(4), 0.5, 1+r.Intn(3), 0.4, gen.AdHoc)
		})
		counters := map[string]counter{}
		corruptions := in.MaximalCorruptions()
		for _, attack := range attacks {
			sets := corruptions
			if attack == "honest" {
				sets = []nodeset.Set{nodeset.Empty()}
			}
			c := counters[attack]
			for _, tset := range sets {
				mk := func() map[int]network.Process {
					switch attack {
					case "silent":
						return protocol.Silence(tset)
					case "wrong-value":
						return zcpa.WrongValueProcesses(in, tset, "forged")
					default:
						return nil
					}
				}
				dopts := p.options()
				dopts.Corrupt = mk()
				direct, err := protocol.RunByName(protocol.ZCPA, in, "real", dopts)
				if err != nil {
					panic(err)
				}
				pi := &selfred.PiDecider{LK: in.LocalKnowledge()}
				sopts := p.options()
				sopts.Corrupt = mk()
				sopts.Decider = pi
				sim, err := protocol.RunByName(protocol.ZCPA, in, "real", sopts)
				if err != nil {
					panic(err)
				}
				c.runs++
				c.pairs += int(pi.SimulatedRuns.Load() / 2)
				dv, dok := direct.DecisionOf(in.Receiver)
				sv, sok := sim.DecisionOf(in.Receiver)
				if dv == sv && dok == sok && direct.Rounds == sim.Rounds {
					c.agree++
				}
			}
			counters[attack] = c
		}
		return counters
	})
	for _, attack := range attacks {
		var c counter
		for _, m := range results {
			c.runs += m[attack].runs
			c.agree += m[attack].agree
			c.pairs += m[attack].pairs
		}
		t.AddRow(attack, c.runs, c.agree, c.runs-c.agree, c.pairs)
	}
	t.Notes = append(t.Notes, "expected: disagree = 0 — the Π-simulation scheme loses nothing")
	return t
}

// E8Scaling compares the complexity footprints of Z-CPA, PPA and RMT-PKA as
// instances grow: Z-CPA stays linear-round / polynomial-message while the
// path-flooding protocols track the simple-path count (exponential in dense
// topologies) — the efficiency gap motivating Section 5.
func E8Scaling(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E8",
		Title:   "complexity scaling: Z-CPA vs PPA vs RMT-PKA (Sec. 5 motivation)",
		Columns: []string{"topology", "n", "D-R paths", "protocol", "rounds", "messages", "bits", "decided"},
	}
	type topo struct {
		name string
		g    *graph.Graph
		d, r int
	}
	var topos []topo
	for _, n := range []int{5, 7, 9, 11} {
		topos = append(topos, topo{fmt.Sprintf("line-%d", n), gen.Line(n), 0, n - 1})
	}
	for _, w := range []int{2, 3} {
		for _, l := range []int{2, 3} {
			g, d, r := gen.Layered(l, w)
			topos = append(topos, topo{fmt.Sprintf("layered-%dx%d", l, w), g, d, r})
		}
	}
	for _, tp := range topos {
		z := adversary.Trivial()
		in, err := gen.Build(tp.g, z, gen.AdHoc, tp.d, tp.r)
		if err != nil {
			panic(err)
		}
		paths := tp.g.CountPaths(tp.d, tp.r, nodeset.Empty(), 0)

		zres, err := protocol.RunByName(protocol.ZCPA, in, "x", p.options())
		if err != nil {
			panic(err)
		}
		addScalingRow(t, tp.name, in.N(), paths, "Z-CPA", zres, in.Receiver)

		fullIn, err := gen.Build(tp.g, z, gen.FullKnowledge, tp.d, tp.r)
		if err != nil {
			panic(err)
		}
		pres, err := protocol.RunByName(protocol.PPA, fullIn, "x", p.options())
		if err != nil {
			panic(err)
		}
		addScalingRow(t, tp.name, in.N(), paths, "PPA", pres, in.Receiver)

		kres, err := protocol.RunByName(protocol.PKA, in, "x", p.options())
		if err != nil {
			panic(err)
		}
		addScalingRow(t, tp.name, in.N(), paths, "RMT-PKA", kres, in.Receiver)
	}
	t.Notes = append(t.Notes,
		"expected shape: Z-CPA messages grow linearly with n; PPA and RMT-PKA track the D-R path count",
		"RMT-PKA additionally floods type-2 knowledge, costing the largest bit volume")
	return t
}

func addScalingRow(t *Table, name string, n, paths int, proto string, res *network.Result, receiver int) {
	_, decided := res.DecisionOf(receiver)
	t.AddRow(name, n, paths, proto, res.Rounds, res.Metrics.MessagesSent, res.Metrics.BitsSent, decided)
}

// F1BasicFrontier reproduces Figure 1's family 𝒢′: basic instances with a
// middle set of size k under a global threshold t. The solvability frontier
// is 2t < k (no pair partition), and protocol Π must decide exactly on the
// solvable side.
func F1BasicFrontier(p Params) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "basic-instance family 𝒢′ solvability frontier (Figure 1)",
		Columns: []string{"|A(G)|", "threshold t", "pair partition?", "solvable", "Π decides worst case"},
	}
	for k := 2; k <= 6; k++ {
		for thr := 0; thr <= 3; thr++ {
			middle := nodeset.Range(1, 1+k)
			z := adversary.GlobalThreshold(middle, thr)
			b := selfred.NewBasic(middle, z)
			solvable := b.Solvable()
			// Worst case for Π: t corrupted middles report a forged value.
			var corrupted nodeset.Set
			i := 0
			middle.ForEach(func(v int) bool {
				if i < thr {
					corrupted = corrupted.Add(v)
					i++
				}
				return true
			})
			reports := map[network.Value]nodeset.Set{
				"real": middle.Minus(corrupted),
			}
			if !corrupted.IsEmpty() {
				reports["forged"] = corrupted
			}
			x, ok := selfred.Pi(b, reports)
			piOK := ok && x == "real"
			t.AddRow(k, thr, !solvable, solvable, piOK)
		}
	}
	t.Notes = append(t.Notes,
		"expected frontier: solvable ⇔ 2t < k, and Π decides exactly on solvable instances")
	return t
}

// F2IndistinguishableRuns materializes the proof constructions built on
// indistinguishable executions: Theorem 8's runs e and e' (the receiver's
// views coincide byte-for-byte although the dealer values differ) and
// Theorem 9's paired runs e_0^l / e_1^l.
func F2IndistinguishableRuns(p Params) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "indistinguishable runs (Thm 8 construction; Thm 9 pairs, Figure 2)",
		Columns: []string{"construction", "dealer values", "views equal", "decisions equal"},
	}
	// Theorem 8 on the weak diamond: run e has x_D = 0 with node 1
	// corrupted sending 1 (its honest behavior in e'); run e' has x_D = 1
	// with node 2 corrupted sending 0. The receiver cannot distinguish.
	g, d, rcv := gen.DisjointPaths(2, 1)
	z := gen.Singletons(g.Nodes().Minus(nodeset.Of(d, rcv)))
	in, err := gen.Build(g, z, gen.AdHoc, d, rcv)
	if err != nil {
		panic(err)
	}
	run := func(xD network.Value, corruptNode int, lie network.Value) *network.Result {
		corrupt := map[int]network.Process{
			corruptNode: &zcpa.WrongValue{Neighbors: in.G.Neighbors(corruptNode), Value: lie},
		}
		opts := p.options()
		opts.Corrupt = corrupt
		opts.RecordTranscript = true
		opts.MaxRounds = 4
		res, err := protocol.RunByName(protocol.ZCPA, in, xD, opts)
		if err != nil {
			panic(err)
		}
		return res
	}
	e := run("0", 1, "1")
	ePrime := run("1", 2, "0")
	viewsEqual := e.Transcript.ViewKey(rcv, 0) == ePrime.Transcript.ViewKey(rcv, 0)
	dv, dok := e.DecisionOf(rcv)
	pv, pok := ePrime.DecisionOf(rcv)
	t.AddRow("Thm 8: runs e / e'", "0 vs 1", viewsEqual, dv == pv && dok == pok)

	// Theorem 9 pairs on a basic instance.
	b := selfred.NewBasic(nodeset.Of(1, 2, 3), adversary.FromSlices([]int{1}))
	e0, e1, _ := selfred.RunPair(b, nodeset.Of(2, 3))
	_, _, key1 := selfred.RunPair(b, nodeset.Of(2, 3))
	_, _, key2 := selfred.RunPair(b, nodeset.Of(2, 3))
	t.AddRow("Thm 9: runs e_0^l / e_1^l", "0 vs 1", key1 == key2,
		e0.Decision == e1.Decision && e0.Decided == e1.Decided)
	t.Notes = append(t.Notes,
		"views equal = true exhibits why no safe algorithm can decide across an RMT Z-pp cut",
		"in the Thm 8 construction the receiver must stay undecided (safety); both runs agree")
	return t
}

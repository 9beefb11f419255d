package eval

import (
	"fmt"
	"math/rand"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/broadcast"
	"rmt/internal/core"
	"rmt/internal/discovery"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// E9BroadcastTightness cross-validates the Definition-10 𝒵-pp cut for
// Reliable Broadcast (the paper's root setting, [13]) against operational
// resilience of 𝒵-CPA broadcast over all admissible corruption sets.
func E9BroadcastTightness(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E9",
		Title:   "broadcast Z-pp cut ⇔ Z-CPA broadcast failure (Def 10, [13])",
		Columns: []string{"n", "instances", "solvable", "unsolvable", "mismatches"},
	}
	type verdict struct{ solvable, mismatch bool }
	for _, n := range []int{4, 5, 6} {
		n := n
		results := runTrials(p, 900+n, func(r *rand.Rand, _ int) verdict {
			var in *broadcast.Instance
			for {
				g := gen.RandomGNP(r, n, 0.5)
				z := adversary.Random(r, g.Nodes().Remove(0), 1+r.Intn(2), 0.35)
				b, err := broadcast.New(g, z, 0)
				if err == nil {
					in = b
					break
				}
			}
			cutFree := broadcast.Solvable(in)
			ok, err := broadcast.Resilient(in)
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
	t.Notes = append(t.Notes,
		"expected: 0 mismatches",
		"resilience is checked over ALL corruption sets: broadcast liveness is not monotone in T")
	return t
}

// E10HorizonAblation measures the Horizon-PKA ablation: message/bit savings
// versus solvability loss as the path-length bound tightens.
func E10HorizonAblation(p Params) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Horizon-PKA ablation: bounded-path flooding vs full RMT-PKA",
		Columns: []string{"topology", "horizon", "messages", "bits", "decided", "msg savings"},
	}
	cases := []struct {
		name     string
		mk       func() (*instance.Instance, int)
		horizons []int
	}{
		{"layered-2x3", func() (*instance.Instance, int) {
			g, d, r := gen.Layered(2, 3)
			in, err := instance.New(g, adversary.Trivial(), view.AdHoc(g), d, r)
			if err != nil {
				panic(err)
			}
			return in, r
		}, []int{0, 6, 5, 4}},
		{"layered-3x2", func() (*instance.Instance, int) {
			g, d, r := gen.Layered(3, 2)
			in, err := instance.New(g, adversary.Trivial(), view.AdHoc(g), d, r)
			if err != nil {
				panic(err)
			}
			return in, r
		}, []int{0, 7, 5}},
		{"line-7", func() (*instance.Instance, int) {
			g := gen.Line(7)
			in, err := instance.New(g, adversary.Trivial(), view.AdHoc(g), 0, 6)
			if err != nil {
				panic(err)
			}
			return in, 6
		}, []int{0, 7, 6}},
	}
	for _, c := range cases {
		in, rcv := c.mk()
		base := -1
		for _, h := range c.horizons {
			opts := p.options()
			opts.Horizon = h
			res, err := protocol.RunByName(protocol.PKA, in, "x", opts)
			if err != nil {
				panic(err)
			}
			if h == 0 {
				base = res.Metrics.MessagesSent
			}
			_, decided := res.DecisionOf(rcv)
			savings := "-"
			if h != 0 && base > 0 {
				savings = fmt.Sprintf("%.0f%%", 100*(1-float64(res.Metrics.MessagesSent)/float64(base)))
			}
			label := "∞"
			if h > 0 {
				label = fmt.Sprint(h)
			}
			t.AddRow(c.name, label, res.Metrics.MessagesSent, res.Metrics.BitsSent, decided, savings)
		}
	}
	t.Notes = append(t.Notes,
		"horizon = max D-R path length in nodes; ∞ = standard RMT-PKA",
		"tight horizons cut messages sharply but may abstain (liveness traded, never safety)")
	return t
}

// E11RepresentationAblation times the antichain ⊕ against the brute-force
// member-enumeration semantics of Definition 2 — the design choice DESIGN.md
// §4 calls out.
func E11RepresentationAblation(p Params) *Table {
	p = p.withDefaults()
	r := rand.New(rand.NewSource(p.Seed + 11))
	t := &Table{
		ID:      "E11",
		Title:   "⊕ representation ablation: antichain vs Definition-2 enumeration",
		Columns: []string{"|universe|", "maximal sets", "antichain µs/op", "brute µs/op", "speedup"},
	}
	for _, n := range []int{6, 8, 10, 12} {
		u := nodeset.Universe(n)
		z := adversary.Random(r, u, 4, 0.4)
		a := z.RestrictTo(nodeset.Range(0, n*2/3))
		b := z.RestrictTo(nodeset.Range(n/3, n))

		reps := 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			adversary.Join(a, b)
		}
		fastNs := time.Since(start).Nanoseconds() / int64(reps)

		start = time.Now()
		bruteReps := 5
		for i := 0; i < bruteReps; i++ {
			joinBrute(a, b)
		}
		slowNs := time.Since(start).Nanoseconds() / int64(bruteReps)

		speedup := fmt.Sprintf("%dx", slowNs/max64(fastNs, 1))
		t.AddRow(n, z.NumMaximal(),
			fmt.Sprintf("%.1f", float64(fastNs)/1e3),
			fmt.Sprintf("%.1f", float64(slowNs)/1e3),
			speedup)
	}
	t.Notes = append(t.Notes,
		"both computations are asserted equal in the adversary package's property tests",
		"the antichain form is what makes Z_B folds over large B affordable")
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// joinBrute is the Definition-2 literal semantics (duplicated from the
// adversary tests so the experiment is self-contained).
func joinBrute(e, f adversary.Restricted) adversary.Restricted {
	var result []nodeset.Set
	e.Structure.Members(func(z1 nodeset.Set) bool {
		f.Structure.Members(func(z2 nodeset.Set) bool {
			if z1.Intersect(f.Domain).Equal(z2.Intersect(e.Domain)) {
				result = append(result, z1.Union(z2))
			}
			return true
		})
		return true
	})
	return adversary.Restricted{Domain: e.Domain.Union(f.Domain), Structure: adversary.FromSets(result...)}
}

// E12Discovery measures Byzantine topology discovery (the conclusions'
// application direction): per adversary strategy, how much of the real
// topology the observer confirms and what gets flagged.
func E12Discovery(p Params) *Table {
	p = p.withDefaults()
	t := &Table{
		ID:      "E12",
		Title:   "Byzantine topology discovery (conclusions: ⊕ beyond RMT)",
		Columns: []string{"strategy", "runs", "honest edges confirmed", "fake edges accepted", "contested flagged"},
	}
	type counter struct{ runs, confirmed, confirmable, fake, contested int }
	order := []string{"honest", "silent", "fake-edge", "split-brain"}
	results := runTrials(p, 1200, func(r *rand.Rand, _ int) map[string]counter {
		var g *graph.Graph
		var n int
		for {
			n = 5 + r.Intn(3)
			g = gen.RandomGNP(r, n, 0.5)
			if g.ComponentOf(0).Equal(g.Nodes()) {
				break
			}
		}
		corruptNode := 1 + r.Intn(n-1)
		z := adversary.FromSets(nodeset.Of(corruptNode))
		gamma := view.AdHoc(g)
		counters := map[string]counter{}
		for _, strat := range order {
			var corrupt map[int]network.Process
			fakeU, fakeV := pickNonEdge(r, g, corruptNode)
			switch strat {
			case "honest":
			case "silent":
				corrupt = protocol.Silence(nodeset.Of(corruptNode))
			case "fake-edge":
				if fakeU < 0 {
					continue
				}
				fakeView := gamma.Of(corruptNode).Clone()
				fakeView.AddEdge(fakeU, fakeV)
				info := core.NodeInfo{Node: corruptNode, View: fakeView, Z: gamma.LocalStructure(z, corruptNode)}
				corrupt = map[int]network.Process{
					corruptNode: core.NewRelayAt(corruptNode, g.Neighbors(corruptNode), info),
				}
			case "split-brain":
				corrupt = map[int]network.Process{
					corruptNode: splitBrainDiscovery(g, gamma, z, corruptNode),
				}
			}
			res, err := discovery.Run(g, z, gamma, 0, corrupt, nil)
			if err != nil {
				panic(err)
			}
			c := counters[strat]
			c.runs++
			honest := g.Nodes().Remove(corruptNode)
			reachable := g.RemoveNodes(nodeset.Of(corruptNode)).ComponentOf(0)
			for _, e := range g.Edges() {
				if honest.Contains(e[0]) && honest.Contains(e[1]) &&
					reachable.Contains(e[0]) && reachable.Contains(e[1]) {
					c.confirmable++
					if res.Confirmed.HasEdge(e[0], e[1]) {
						c.confirmed++
					}
				}
			}
			for _, e := range res.Confirmed.Edges() {
				if !g.HasEdge(e[0], e[1]) {
					c.fake++
				}
			}
			c.contested += res.Contested.Len()
			counters[strat] = c
		}
		return counters
	})
	for _, strat := range order {
		var c counter
		for _, m := range results {
			s := m[strat]
			c.runs += s.runs
			c.confirmed += s.confirmed
			c.confirmable += s.confirmable
			c.fake += s.fake
			c.contested += s.contested
		}
		t.AddRow(strat, c.runs, fmt.Sprintf("%d/%d", c.confirmed, c.confirmable), c.fake, c.contested)
	}
	t.Notes = append(t.Notes,
		"expected: fake edges accepted = 0 (bilateral confirmation), honest edges fully confirmed",
		"split-brain claimers surface in the contested column")
	return t
}

func pickNonEdge(r *rand.Rand, g interface {
	HasEdge(u, v int) bool
	NumNodes() int
	Nodes() nodeset.Set
}, exclude int) (int, int) {
	ids := g.Nodes().Members()
	for tries := 0; tries < 50; tries++ {
		u := ids[r.Intn(len(ids))]
		v := ids[r.Intn(len(ids))]
		if u != v && u != exclude && v != exclude && !g.HasEdge(u, v) {
			return u, v
		}
	}
	return -1, -1
}

func splitBrainDiscovery(g interface {
	Neighbors(v int) nodeset.Set
}, gamma view.Function, z adversary.Structure, id int) network.Process {
	honest := core.NodeInfo{Node: id, View: gamma.Of(id), Z: gamma.LocalStructure(z, id)}
	fakeView := gamma.Of(id).Clone()
	fakeView.AddEdge(id, id+100)
	lying := core.NodeInfo{Node: id, View: fakeView, Z: gamma.LocalStructure(z, id)}
	per := map[int][]network.Payload{}
	i := 0
	g.Neighbors(id).ForEach(func(u int) bool {
		ni := honest
		if i%2 == 1 {
			ni = lying
		}
		per[u] = []network.Payload{core.InfoMsg{Info: ni, P: graph.Path{id}}}
		i++
		return true
	})
	return &core.Forger{ID: id, Neighbors: g.Neighbors(id), InitPer: per}
}

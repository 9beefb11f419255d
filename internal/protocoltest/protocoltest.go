// Package protocoltest is a reusable conformance battery for RMT protocol
// implementations. Given a protocol.Protocol, it checks the properties
// every correct RMT protocol must have — honest delivery, safety under the
// Byzantine strategy zoo, engine independence — and, for protocols that
// implement protocol.Feasibility, the cut-versus-simulation agreement that
// backs the paper's theorems. The protocol's Caps pick the fixtures: the
// knowledge level, complete graphs, or honest paths.
//
// The repository's six registered protocols (RMT-PKA, 𝒵-CPA, PPA, 𝒵-CPA
// broadcast, MBRB and SMT) all pass the battery (see conformance_test.go),
// and so do test-only variants that are protocol values of their own; a
// downstream user adding a protocol runs the same battery against its
// Protocol value.
//
// Every battery run is configured by a protocol.Cell, which builds the
// run's scheduler and message adversary fresh, and every cross-engine
// comparison is network.Disagreement over a list of cells.
package protocoltest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// RunRegistry executes the full battery against every registered protocol.
func RunRegistry(t *testing.T, cfg Config) {
	t.Helper()
	for _, p := range protocol.All() {
		Run(t, p, cfg)
	}
}

// Config tunes the battery.
type Config struct {
	Seed      int64
	Trials    int // random instances for the tightness sweep
	MaxRounds int
	// WireEngine, when non-nil, enables the real-socket equivalence slice
	// for registered protocols: every fixture run is repeated on all four
	// engines (lockstep, goroutine, async, wire) and must be
	// transcript-identical. Callers pass wire.Engine; the battery
	// cannot import internal/wire itself (the host test binary must also
	// install the wire TestMain re-exec hook, which is the caller's choice).
	WireEngine network.Engine
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Trials == 0 {
		c.Trials = 40
	}
	return c
}

// Run executes the full battery against p.
func Run(t *testing.T, p protocol.Protocol, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	name := p.Name()
	t.Run(name+"/honest-delivery", func(t *testing.T) { honestDelivery(t, p, cfg) })
	t.Run(name+"/safety-zoo", func(t *testing.T) { safetyZoo(t, p, cfg) })
	t.Run(name+"/engine-equivalence", func(t *testing.T) { engineEquivalence(t, p, cfg) })
	t.Run(name+"/churn-equivalence", func(t *testing.T) { churnEquivalence(t, p, cfg) })
	t.Run(name+"/schedule-safety", func(t *testing.T) { scheduleSafety(t, p, cfg) })
	t.Run(name+"/inbox-order", func(t *testing.T) { inboxOrder(t, p) })
	t.Run(name+"/message-adversary", func(t *testing.T) { messageAdversary(t, p, cfg) })
	// The wire engine's children rebuild the run from registry names.
	if _, registered := protocol.Get(name); registered && cfg.WireEngine != nil {
		t.Run(name+"/wire-equivalence", func(t *testing.T) { wireEquivalence(t, p, cfg) })
	}
	if f, ok := p.(protocol.Feasibility); ok {
		t.Run(name+"/tightness", func(t *testing.T) { tightness(t, p, f, cfg) })
	}
}

// knowledge is the knowledge level p is designed for.
func knowledge(p protocol.Protocol) gen.Knowledge {
	if p.Caps().NeedsFullKnowledge {
		return gen.FullKnowledge
	}
	return gen.AdHoc
}

// spec is one battery run: the cell that builds its engine, schedule and
// message adversary fresh, plus what the slice layers on top.
type spec struct {
	protocol.Cell
	xD        network.Value
	corrupt   map[int]network.Process
	churn     []network.ChurnEvent
	maxRounds int
	// toEnd runs to quiescence or maxRounds; otherwise a protocol in which
	// only the receiver decides stops as soon as it has, as protocol.Run
	// stops it.
	toEnd bool
	// record adds a transcript and a countTracer, for the agreement and
	// reconciliation checks; tracer is one more observer.
	record bool
	tracer network.Tracer
	// eclipse, when set, replaces the cell's message adversary with the
	// eclipse of these named victims (network.NewEclipse): the one
	// suppression pattern a cell's seeded policies cannot name.
	eclipse []int
}

// outcome is one battery run's result and the observers it was built with.
type outcome struct {
	res  *network.Result
	ct   *countTracer // nil unless the spec records
	madv network.MessageAdversary
}

// run executes one battery run of p on in, its processes provisioned for
// the cell's suppression budget.
func run(p protocol.Protocol, in *instance.Instance, s spec) (outcome, error) {
	opts, err := s.Options()
	if err != nil {
		return outcome{}, err
	}
	if s.eclipse != nil {
		opts.MsgAdversary = network.NewEclipse(s.eclipse...)
	}
	procs, err := p.Assemble(in, s.xD, protocol.Options{Corrupt: s.corrupt, MABudget: s.MABudget})
	if err != nil {
		return outcome{}, err
	}
	cfg := network.Config{
		Graph:            in.G,
		Processes:        procs,
		Engine:           opts.Engine,
		Scheduler:        opts.Scheduler,
		MsgAdversary:     opts.MsgAdversary,
		Churn:            s.churn,
		MaxRounds:        s.maxRounds,
		RecordTranscript: s.record,
	}
	if !s.toEnd && !p.Caps().AllDecide {
		cfg.StopEarly = func(d map[int]network.Value) bool {
			_, ok := d[in.Receiver]
			return ok
		}
	}
	o := outcome{madv: opts.MsgAdversary}
	if s.record {
		o.ct = &countTracer{sends: map[int]int{}, bits: map[int]int{}}
		cfg.Tracers = append(cfg.Tracers, o.ct)
	}
	if s.tracer != nil {
		cfg.Tracers = append(cfg.Tracers, s.tracer)
	}
	o.res, err = network.Run(cfg)
	return o, err
}

// engineCells are the in-process engines; the async one runs the
// zero-fault schedule, which must be indistinguishable from lockstep.
var engineCells = []protocol.Cell{{Engine: network.Lockstep}, {Engine: network.Goroutine}, {Engine: network.Async}}

// agree runs one configuration under every cell and requires each run to
// agree with the first under network.Disagreement — transcripts, then
// every decision — and to balance its books: the tracer counts of a
// recording run against its transcript and metrics, the metrics of any
// other. It returns the runs, in cell order, for the slice's own checks.
func agree(t *testing.T, label string, cells []protocol.Cell, run func(protocol.Cell) (outcome, error)) []outcome {
	t.Helper()
	outs := make([]outcome, len(cells))
	for i, c := range cells {
		o, err := run(c)
		if err != nil {
			t.Fatalf("%s, %s: %v", label, c.Engine.Name(), err)
		}
		outs[i] = o
		l := label + ", " + c.Engine.Name()
		if i > 0 {
			if d := network.Disagreement(outs[0].res, o.res); d != "" {
				t.Errorf("%s disagrees with %s: %s", l, cells[0].Engine.Name(), d)
			}
		}
		if o.ct != nil {
			o.ct.reconcile(t, l, o.res)
		} else if err := o.res.Metrics.Reconcile(); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
	return outs
}

// countTracer accumulates per-round send/bit counts from the event stream,
// to reconcile against the transcript and metrics.
type countTracer struct {
	network.NopTracer
	sends map[int]int
	bits  map[int]int
	loses int
}

func (c *countTracer) Send(round int, m network.Message) {
	c.sends[round]++
	c.bits[round] += m.Payload.BitSize()
}

func (c *countTracer) Lose(int, network.Message) { c.loses++ }

// reconcile cross-checks the tracer's counts against the recorded
// transcript (a send in round r is a delivery of round r+1) and the
// engine's metrics — the observer and the two stock instrumentations must
// tell the same story.
func (c *countTracer) reconcile(t *testing.T, label string, res *network.Result) {
	t.Helper()
	if err := res.Metrics.Reconcile(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	totalSends, totalBits := 0, 0
	for r, n := range c.sends {
		totalSends += n
		totalBits += c.bits[r]
		if got := len(res.Transcript.Deliveries(r + 1)); got != n {
			t.Errorf("%s: round %d: tracer saw %d sends, transcript has %d deliveries at %d",
				label, r, n, got, r+1)
		}
	}
	if totalSends != res.Metrics.MessagesSent {
		t.Errorf("%s: tracer sends %d != Metrics.MessagesSent %d", label, totalSends, res.Metrics.MessagesSent)
	}
	if totalBits != res.Metrics.BitsSent {
		t.Errorf("%s: tracer bits %d != Metrics.BitsSent %d", label, totalBits, res.Metrics.BitsSent)
	}
}

// fixtures returns the standard solvable fixtures at the factory's
// knowledge level. Complete-graph protocols get complete instances sized so
// their quorums survive both the fixtures' corruptions and the
// message-adversary slice's budget (K6 under singleton corruption is one
// node above the n = 3t + 2d bound at t = d = 1); everyone else gets the
// sparse path fixtures.
func fixtures(t *testing.T, p protocol.Protocol) []*instance.Instance {
	t.Helper()
	level := knowledge(p)
	var out []*instance.Instance
	if p.Caps().CompleteGraph {
		// K6 with singleton corruption of the interior.
		g1 := gen.Complete(6)
		in1, err := gen.Build(g1, gen.Singletons(g1.Nodes().Minus(nodeset.Of(0, 5))), level, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in1)
		// An honest K4: trivially solvable.
		g2 := gen.Complete(4)
		in2, err := gen.Build(g2, adversary.Trivial(), level, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, in2)
	}
	if p.Caps().HonestPaths {
		// Four disjoint relays, two of them corruptible: the ground {1, 2}
		// never separates dealer 0 from receiver 5, so honest-path routing
		// always has relays 3 and 4 to work with, while the zoo still gets
		// real maximal corruptions to overlay.
		g1, d1, r1 := gen.DisjointPaths(4, 1)
		in1, err := gen.Build(g1, gen.Singletons(nodeset.Of(1, 2)), level, d1, r1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in1)
		// An honest line: trivially solvable.
		g2 := gen.Line(5)
		in2, err := gen.Build(g2, adversary.Trivial(), level, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, in2)
	}
	// Triple relays with singleton corruption: solvable at every level.
	g1, d1, r1 := gen.DisjointPaths(3, 1)
	in1, err := gen.Build(g1, gen.Singletons(g1.Nodes().Minus(nodeset.Of(d1, r1))), level, d1, r1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, in1)
	// An honest line: trivially solvable.
	g2 := gen.Line(5)
	in2, err := gen.Build(g2, adversary.Trivial(), level, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, in2)
	return out
}

func honestDelivery(t *testing.T, p protocol.Protocol, cfg Config) {
	for i, in := range fixtures(t, p) {
		o, err := run(p, in, spec{xD: "x", maxRounds: cfg.MaxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := o.res.DecisionOf(in.Receiver); !ok || got != "x" {
			t.Errorf("fixture %d: honest decision = %q, %v", i, got, ok)
		}
	}
}

func safetyZoo(t *testing.T, p protocol.Protocol, cfg Config) {
	for i, in := range fixtures(t, p) {
		for _, m := range in.MaximalCorruptions() {
			if m.IsEmpty() {
				continue
			}
			for _, strat := range byzantine.All() {
				name := strat.Name()
				o, err := run(p, in, spec{xD: "real", corrupt: strat.Build(in, m, "forged"), maxRounds: cfg.MaxRounds})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range o.res.UnsafeDeciders(m, "real") {
					t.Errorf("fixture %d, strategy %s, corrupt %v: node %d decided %q — SAFETY VIOLATION",
						i, name, m, v, o.res.Decisions[v])
				}
			}
		}
	}
}

// engineEquivalence runs the fixtures honest and under every silenced
// maximal corruption on each in-process engine; the runs must agree.
func engineEquivalence(t *testing.T, p protocol.Protocol, cfg Config) {
	for i, in := range fixtures(t, p) {
		for _, m := range in.MaximalCorruptions() {
			// Deterministic protocols must be transcript-identical, not
			// just decision-identical, across engines.
			silenced := func() map[int]network.Process {
				if m.IsEmpty() {
					return nil
				}
				return protocol.Silence(m)
			}
			label := fmt.Sprintf("fixture %d, corrupt %v", i, m)
			outs := agree(t, label, engineCells, func(c protocol.Cell) (outcome, error) {
				return run(p, in, spec{Cell: c, xD: "x", corrupt: silenced(), maxRounds: cfg.MaxRounds, record: true})
			})
			// The check itself must have teeth: the lockstep run with the
			// transcript of a run on another dealer value grafted on keeps
			// every decision, and must still disagree.
			other, err := run(p, in, spec{xD: "y", corrupt: silenced(), maxRounds: cfg.MaxRounds, record: true})
			if err != nil {
				t.Fatal(err)
			}
			grafted := *outs[0].res
			grafted.Transcript = other.res.Transcript
			if network.Disagreement(outs[0].res, &grafted) == "" {
				t.Errorf("%s: network.Disagreement passed a run whose transcript differs", label)
			}
		}
	}
}

// churnEquivalence re-runs the honest engine-equivalence slice under a
// mid-run churn schedule — a dealer-side edge removed at round 2 and
// restored at round 4 — pinning that topology churn preserves the
// cross-engine determinism guarantee (identical decisions and transcripts
// on lockstep, goroutine and async) and the send/delivery accounting.
// Liveness is deliberately not asserted: severing a dealer edge can make
// the remaining instance unsolvable, and that verdict is the feasibility
// layer's business, not the engines'.
func churnEquivalence(t *testing.T, p protocol.Protocol, cfg Config) {
	for i, in := range fixtures(t, p) {
		rel := -1
		in.G.Neighbors(in.Dealer).ForEach(func(v int) bool {
			if v != in.Receiver {
				rel = v
				return false
			}
			return true
		})
		if rel < 0 {
			continue
		}
		churn := []network.ChurnEvent{
			{Round: 2, RemoveEdges: [][2]int{{in.Dealer, rel}}},
			{Round: 4, AddEdges: [][2]int{{in.Dealer, rel}}},
		}
		agree(t, fmt.Sprintf("fixture %d under churn", i), engineCells, func(c protocol.Cell) (outcome, error) {
			return run(p, in, spec{Cell: c, xD: "x", churn: churn, maxRounds: cfg.MaxRounds, record: true})
		})
	}
}

// messageAdversary is the suppression slice: honest runs under every stock
// message-adversary policy must stay deterministic across the in-process
// engines (identical transcripts and suppression counts), keep the
// Sent = Delivered + Lost books balanced with every suppressed copy showing
// up as a tracer Lose, and never decide anything but x_D — suppression can
// starve players, never corrupt them. Complete-graph protocols additionally
// prove budget-provisioned liveness: with quorums sized for d = 1, a
// one-victim eclipse plus a silenced admissible corruption still delivers at
// every correct non-victim.
func messageAdversary(t *testing.T, p protocol.Protocol, cfg Config) {
	const d = 1
	for i, in := range fixtures(t, p) {
		for _, name := range network.MessageAdversaryNames() {
			var cells []protocol.Cell
			for _, c := range engineCells {
				cells = append(cells, protocol.Cell{Engine: c.Engine, MAPolicy: name, MABudget: d, MASeed: 11})
			}
			// StopEarly is never installed: the accounting checks need the
			// full run, and the decision check every player's decision.
			label := fmt.Sprintf("fixture %d, policy %s", i, name)
			outs := agree(t, label, cells, func(c protocol.Cell) (outcome, error) {
				return run(p, in, spec{Cell: c, xD: "x", maxRounds: cfg.MaxRounds, toEnd: true, record: true})
			})
			for j, o := range outs {
				label := label + ", " + cells[j].Engine.Name()
				if o.madv.Suppressed() != outs[0].madv.Suppressed() {
					t.Errorf("%s: suppressed %d copies, lockstep %d",
						label, o.madv.Suppressed(), outs[0].madv.Suppressed())
				}
				if o.ct.loses != o.res.Metrics.MessagesLost {
					t.Errorf("%s: tracer saw %d loses, Metrics.MessagesLost %d",
						label, o.ct.loses, o.res.Metrics.MessagesLost)
				}
				if o.madv.Suppressed() > o.ct.loses {
					t.Errorf("%s: %d suppressions but only %d Lose events",
						label, o.madv.Suppressed(), o.ct.loses)
				}
				for v, got := range o.res.Decisions {
					if got != "x" {
						t.Errorf("%s: player %d decided %q under suppression — SAFETY VIOLATION",
							label, v, got)
					}
				}
			}
		}
		if !p.Caps().CompleteGraph {
			continue
		}
		// Budget-provisioned liveness at the bound: eclipse one correct
		// interior player and silence each admissible corruption in turn.
		for _, m := range in.MaximalCorruptions() {
			victim := -1
			in.G.Nodes().ForEach(func(v int) bool {
				if v != in.Dealer && v != in.Receiver && !m.Contains(v) {
					victim = v
					return false
				}
				return true
			})
			if victim < 0 {
				continue
			}
			var corrupt map[int]network.Process
			if !m.IsEmpty() {
				corrupt = protocol.Silence(m)
			}
			o, err := run(p, in, spec{Cell: protocol.Cell{Engine: network.Lockstep, MABudget: d}, eclipse: []int{victim},
				xD: "x", corrupt: corrupt, maxRounds: cfg.MaxRounds, toEnd: true, record: true})
			if err != nil {
				t.Fatal(err)
			}
			in.G.Nodes().ForEach(func(v int) bool {
				if v == victim || m.Contains(v) {
					return true
				}
				if got, ok := o.res.DecisionOf(v); !ok || got != "x" {
					t.Errorf("fixture %d, corrupt %v, victim %d: correct non-victim %d decided %q, %v; want \"x\"",
						i, m, victim, v, got, ok)
				}
				return true
			})
		}
	}
}

// wireEquivalence is the four-engine slice: on the standard fixtures plus
// every feasibility fixture buildable at the protocol's knowledge level,
// the lockstep, goroutine, async and wire engines must produce identical
// decisions and byte-identical transcripts. Each run is one blueprint
// resolved through cliutil.ResolveRun; the wire engine re-execs the test
// binary once per player and each child resolves the same blueprint, so
// this slice proves the blueprint/codec path preserves the exact event
// stream of an in-process run — transcript equivalence needs no
// solvability, so unsolvable fixtures participate too.
func wireEquivalence(t *testing.T, p protocol.Protocol, cfg Config) {
	level := knowledge(p)
	ins := fixtures(t, p)
	// The worked-example fixtures are sparse (complete-graph protocols
	// reject them) and their structures cover every D–R path (honest-path
	// protocols reject those), so both classes only run their own fixtures
	// here.
	if !p.Caps().CompleteGraph && !p.Caps().HonestPaths {
		for _, fx := range feasibility.All() {
			in, err := fx.Build(level)
			if err != nil {
				continue // fixture not expressible at this knowledge level
			}
			ins = append(ins, in)
		}
	}
	cells := append(slices.Clip(engineCells), protocol.Cell{Engine: cfg.WireEngine})
	for i, in := range ins {
		bp := network.Blueprint{
			Instance: cliutil.InstanceSpec{Graph: in.G, Z: in.Z, Knowledge: level, Dealer: in.Dealer, Receiver: in.Receiver}.Format(),
			Protocol: p.Name(),
			Value:    "x",
		}
		// The honest run plus at most two silenced maximal corruptions
		// bound the per-fixture child-process spawn cost.
		corruptions := []nodeset.Set{{}}
		for _, m := range in.MaximalCorruptions() {
			if !m.IsEmpty() {
				corruptions = append(corruptions, m)
			}
			if len(corruptions) > 2 {
				break
			}
		}
		for _, m := range corruptions {
			bp.Corrupt = m.Members()
			r, err := cliutil.ResolveRun(bp, in)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, fmt.Sprintf("fixture %d, corrupt %v", i, m), cells, func(c protocol.Cell) (outcome, error) {
				opts, err := r.Options(c)
				if err != nil {
					return outcome{}, err
				}
				opts.RecordTranscript, opts.MaxRounds = true, cfg.MaxRounds
				res, err := protocol.Run(r.Protocol, in, "x", opts)
				return outcome{res: res}, err
			})
		}
	}
}

// scheduleSafety runs every stock async schedule against the fixtures:
// honest runs must still deliver x_D to the receiver (eventual delivery
// preserves liveness, just later), and silenced admissible corruptions must
// never induce a wrong receiver decision under any delivery order.
func scheduleSafety(t *testing.T, p protocol.Protocol, cfg Config) {
	// Delays stretch a path of h hops to at most h·(1+MaxSkew) rounds, and
	// the partition schedule holds cross messages for at most its heal
	// round; 64 rounds dominate both on the small fixtures.
	const maxRounds = 64
	for i, in := range fixtures(t, p) {
		for _, name := range network.SchedulerNames() {
			for seed := int64(1); seed <= 2; seed++ {
				cell := protocol.Cell{Engine: network.Async, Schedule: name, SchedSeed: seed}
				o, err := run(p, in, spec{Cell: cell, xD: "x", maxRounds: maxRounds})
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := o.res.DecisionOf(in.Receiver); !ok || got != "x" {
					t.Errorf("fixture %d, schedule %s seed %d: honest decision = %q, %v",
						i, name, seed, got, ok)
				}
				for _, m := range in.MaximalCorruptions() {
					if m.IsEmpty() {
						continue
					}
					o, err := run(p, in, spec{Cell: cell, xD: "real", corrupt: protocol.Silence(m), maxRounds: maxRounds})
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range o.res.UnsafeDeciders(m, "real") {
						t.Errorf("fixture %d, schedule %s seed %d, corrupt %v: node %d decided %q — SAFETY VIOLATION",
							i, name, seed, m, v, o.res.Decisions[v])
					}
				}
			}
		}
	}
}

// inboxOrder pins the inbox order the Process contract promises — sender
// ID, ties broken by payload key — under every stock schedule, on the first
// fixture and on a copy with every node ID tripled. A delaying schedule
// files several send rounds into one delivery round, and tripled IDs are
// not the ranks the engine indexes its players by.
func inboxOrder(t *testing.T, p protocol.Protocol) {
	in := fixtures(t, p)[0]
	spread, err := spreadIDs(in, knowledge(p), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []*instance.Instance{in, spread} {
		for _, name := range network.SchedulerNames() {
			for seed := int64(1); seed <= 2; seed++ {
				ot := &orderTracer{}
				cell := protocol.Cell{Engine: network.Async, Schedule: name, SchedSeed: seed}
				o, err := run(p, fx, spec{Cell: cell, xD: "x", maxRounds: 64, toEnd: true, tracer: ot})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("nodes %v, schedule %s seed %d", fx.G.Nodes(), name, seed)
				if ot.err != nil {
					t.Errorf("%s: %v", label, ot.err)
				}
				if o.res.Metrics.MessagesDelivered == 0 {
					t.Errorf("%s: nothing delivered", label)
				}
			}
		}
	}
}

// spreadIDs returns in with every node ID multiplied by k, at knowledge
// level lvl: the same instance under an order-preserving relabelling.
func spreadIDs(in *instance.Instance, lvl gen.Knowledge, k int) (*instance.Instance, error) {
	g := graph.New()
	in.G.Nodes().ForEach(func(v int) bool {
		g.AddNode(k * v)
		return true
	})
	for _, e := range in.G.Edges() {
		g.AddEdge(k*e[0], k*e[1])
	}
	var sets []nodeset.Set
	for _, m := range in.Z.Maximal() {
		var s nodeset.Set
		m.ForEach(func(v int) bool {
			s.MutateAdd(k * v)
			return true
		})
		sets = append(sets, s)
	}
	return gen.Build(g, adversary.FromSets(sets...), lvl, k*in.Dealer, k*in.Receiver)
}

// orderTracer checks every Deliver inbox against the Process contract:
// each message is addressed to the player, and senders ascend with ties
// broken by ascending payload key. It keeps the first violation.
type orderTracer struct {
	network.NopTracer
	err error
}

func (o *orderTracer) Deliver(round, player int, inbox []network.Message) {
	for i, m := range inbox {
		if o.err != nil {
			return
		}
		if m.To != player {
			o.err = fmt.Errorf("round %d: player %d got %d>%d", round, player, m.From, m.To)
		} else if i > 0 {
			p := inbox[i-1]
			if p.From > m.From || p.From == m.From && p.Payload.Key() > m.Payload.Key() {
				o.err = fmt.Errorf("round %d, player %d: %s delivered before %s", round, player, p.Key(), m.Key())
			}
		}
	}
}

func tightness(t *testing.T, p protocol.Protocol, f protocol.Feasibility, cfg Config) {
	r := rand.New(rand.NewSource(cfg.Seed))
	checked := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 4 + r.Intn(3)
		g := gen.RandomGNP(r, n, 0.5)
		z := adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(2), 0.4)
		in, err := gen.Build(g, z, knowledge(p), 0, n-1)
		if err != nil {
			continue
		}
		checked++
		want := f.Solvable(in)
		got := true
		for _, tset := range in.MaximalCorruptions() {
			o, err := run(p, in, spec{xD: "1", corrupt: protocol.Silence(tset), maxRounds: cfg.MaxRounds})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := o.res.DecisionOf(in.Receiver); !ok {
				got = false
				break
			}
		}
		if got != want {
			t.Fatalf(fmtMismatch(p.Name(), trial, want, got, in))
		}
	}
	if checked < cfg.Trials/2 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func fmtMismatch(name string, trial int, want, got bool, in *instance.Instance) string {
	return fmt.Sprintf("%s trial %d: feasibility condition says %v but simulation says %v on %v",
		name, trial, want, got, in)
}

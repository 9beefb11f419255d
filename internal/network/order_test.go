package network

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rmt/internal/graph"
)

// gossip is a chatty test process: in Init and every round it sends
// fanout distinct payloads to every neighbour, in descending key order, so
// each inbox holds several messages per sender that arrive out of key
// order. Payloads name the sender by rank, not ID, so a run and its
// ID-spread copy send identical payloads. A player decides the first key
// it receives, and a player with haltAt > 0 halts in that round.
type gossip struct {
	rank    int
	nbrs    []int
	fanout  int
	haltAt  int
	value   Value
	decided bool
}

func (p *gossip) send(round int, out Outbox) {
	for k := p.fanout - 1; k >= 0; k-- {
		pl := textPayload(fmt.Sprintf("%d.%d.%d", round, p.rank, k))
		for _, u := range p.nbrs {
			out(u, pl)
		}
	}
}

func (p *gossip) Init(out Outbox) { p.send(0, out) }

func (p *gossip) Round(round int, inbox []Message, out Outbox) bool {
	if !p.decided && len(inbox) > 0 {
		p.value, p.decided = Value(inbox[0].Payload.Key()), true
	}
	if round == p.haltAt {
		return false
	}
	p.send(round, out)
	return true
}

func (p *gossip) Decision() (Value, bool) { return p.value, p.decided }

// spread returns g with every node ID multiplied by stride.
func spread(g *graph.Graph, stride int) *graph.Graph {
	h := graph.New()
	g.Nodes().ForEach(func(v int) bool {
		h.AddNode(v * stride)
		return true
	})
	for _, e := range g.Edges() {
		h.AddEdge(e[0]*stride, e[1]*stride)
	}
	return h
}

// inboxLog checks every Deliver inbox against the Process contract —
// addressed to the player, senders ascending, ties by ascending payload
// key — and logs it with node IDs divided by stride, that is, as ranks
// when the graph is a spread copy of one over 0..n-1.
type inboxLog struct {
	NopTracer
	stride int
	lines  []string
	err    error
}

func (l *inboxLog) Deliver(round, player int, inbox []Message) {
	line := fmt.Sprintf("%d@%d:", round, player/l.stride)
	for i, m := range inbox {
		line += fmt.Sprintf(" %d:%s", m.From/l.stride, m.Payload.Key())
		if l.err != nil {
			continue
		}
		if m.To != player {
			l.err = fmt.Errorf("round %d: player %d got %s", round, player, m.Key())
		} else if i > 0 {
			p := inbox[i-1]
			if p.From > m.From || p.From == m.From && p.Payload.Key() > m.Payload.Key() {
				l.err = fmt.Errorf("round %d, player %d: %s delivered before %s", round, player, p.Key(), m.Key())
			}
		}
	}
	l.lines = append(l.lines, line)
}

// eventLog records every event of a run as a line of text: the whole
// event stream, cheaper to build than JSONL, for comparing a run with its
// reference twin's.
type eventLog struct{ b []byte }

func (l *eventLog) add(format string, args ...any) { l.b = fmt.Appendf(l.b, format+"\n", args...) }

func (l *eventLog) BeginRun(nodes, edges int, e Engine) {
	l.add("begin %d %d %s", nodes, edges, e.Name())
}
func (l *eventLog) Send(round int, m Message)     { l.add("send %d %s", round, m.Key()) }
func (l *eventLog) Delay(sent, at int, m Message) { l.add("delay %d %d %s", sent, at, m.Key()) }
func (l *eventLog) Drop(round int, m Message)     { l.add("drop %d %s", round, m.Key()) }
func (l *eventLog) Lose(round int, m Message)     { l.add("lose %d %s", round, m.Key()) }
func (l *eventLog) Churn(round int, added, removed [][2]int) {
	l.add("churn %d %v %v", round, added, removed)
}
func (l *eventLog) Deliver(round, player int, inbox []Message) {
	l.add("deliver %d %d %d", round, player, len(inbox))
	for _, m := range inbox {
		l.add("  %s", m.Key())
	}
}
func (l *eventLog) Decide(round, player int, x Value) { l.add("decide %d %d %s", round, player, x) }
func (l *eventLog) Halt(round, player int)            { l.add("halt %d %d", round, player) }
func (l *eventLog) EndRound(round, sent int)          { l.add("end-round %d %d", round, sent) }
func (l *eventLog) EndRun(rounds int)                 { l.add("end-run %d", rounds) }

// gossipRun runs gossip players on g (a graph over 0..n-1 spread by
// stride) on engine e (the async engine or its reference twin) under the
// named schedule, with the seeded random message adversary at budget d
// when d > 0, and extra tracers. Player i halts in round halts[i] (0 =
// never).
func gossipRun(e Engine, g *graph.Graph, stride int, sched string, seed int64, d int, halts []int, extra ...Tracer) (*Result, *inboxLog, error) {
	sg := spread(g, stride)
	procs := map[int]Process{}
	for i, v := range sg.Nodes().Members() {
		procs[v] = &gossip{rank: i, nbrs: sg.Neighbors(v).Members(), fanout: 2, haltAt: halts[i]}
	}
	il := &inboxLog{stride: stride}
	cfg := Config{
		Graph:     sg,
		Processes: procs,
		Engine:    e,
		Scheduler: MustScheduler(sched, seed),
		MaxRounds: 8,
		Tracers:   append([]Tracer{il}, extra...),
	}
	if d > 0 {
		cfg.MsgAdversary = MustMessageAdversary(MARandom, d, seed)
	}
	res, err := Run(cfg)
	return res, il, err
}

// byRank divides the node-ID keys of m by stride.
func byRank[V any](m map[int]V, stride int) map[int]V {
	out := make(map[int]V, len(m))
	for v, x := range m {
		out[v/stride] = x
	}
	return out
}

// sameRunByRank reports how the run on IDs spread by stride differs from
// the dense run, with IDs mapped to ranks, or nil when they agree.
func sameRunByRank(dense, sparse *Result, dl, sl *inboxLog, stride int) error {
	switch {
	case dense.Rounds != sparse.Rounds:
		return fmt.Errorf("rounds %d, dense %d", sparse.Rounds, dense.Rounds)
	case !reflect.DeepEqual(dense.Metrics, sparse.Metrics):
		return fmt.Errorf("metrics %+v, dense %+v", sparse.Metrics, dense.Metrics)
	case !reflect.DeepEqual(dense.Decisions, byRank(sparse.Decisions, stride)):
		return fmt.Errorf("decisions %v, dense %v", sparse.Decisions, dense.Decisions)
	case !reflect.DeepEqual(dense.DecidedAtRound, byRank(sparse.DecidedAtRound, stride)):
		return fmt.Errorf("decision rounds %v, dense %v", sparse.DecidedAtRound, dense.DecidedAtRound)
	}
	if len(sl.lines) != len(dl.lines) {
		return fmt.Errorf("%d inboxes, dense %d", len(sl.lines), len(dl.lines))
	}
	for i := range dl.lines {
		if dl.lines[i] != sl.lines[i] {
			return fmt.Errorf("inbox %d by rank\n %s\nwant %s", i, sl.lines[i], dl.lines[i])
		}
	}
	return nil
}

// idBlindSchedules are the stock schedules whose random draws never read a
// node ID, so that a run and its ID-spread copy must match by rank; lifo
// and partition hash node IDs into their draws.
var idBlindSchedules = []string{SchedSync, SchedRandom, SchedFIFO}

// TestInboxOrderUnderEveryIDSet runs gossip players on K6 and on seeded
// random graphs under every stock schedule, on IDs 0..n-1 and on the same
// graph with IDs spread by 3 and by 7. Every inbox must be in the order
// the Process contract promises, and under the ID-blind schedules each
// spread run must agree with the dense run on decisions, rounds, metrics
// and every inbox, with IDs mapped to ranks.
func TestInboxOrderUnderEveryIDSet(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	graphs := []*graph.Graph{completeGraph(6)}
	for len(graphs) < 6 {
		n := 3 + r.Intn(6)
		g := graph.NewWithNodes(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(2) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		graphs = append(graphs, g)
	}
	compared := 0
	for gi, g := range graphs {
		for _, sched := range SchedulerNames() {
			for seed := int64(1); seed <= 3; seed++ {
				d := int(seed) - 1
				for _, stride := range []int{3, 7} {
					label := fmt.Sprintf("graph %d, stride %d, %s seed %d, budget %d", gi, stride, sched, seed, d)
					if checkSpreadRun(t, label, g, stride, sched, seed, d) {
						compared++
					}
				}
			}
		}
	}
	if compared != len(graphs)*len(idBlindSchedules)*3*2 {
		t.Fatalf("compared %d spread runs", compared)
	}
}

// checkSpreadRun runs gossip on g and on g spread by stride, fails the
// test if an inbox breaks the contract order or the metrics do not
// reconcile, if the run on g spread by stride differs in its event log or
// Result from its reference twin's (ReferenceEngine, whose per-recipient
// sweeps fix the Lose order the halting players' lost messages must
// follow), and, under an ID-blind schedule, if the two runs differ by
// rank. It reports whether it compared the runs by rank.
func checkSpreadRun(t *testing.T, label string, g *graph.Graph, stride int, sched string, seed int64, d int) bool {
	t.Helper()
	halts := make([]int, g.NumNodes())
	for i := range halts {
		if i%3 == 1 {
			halts[i] = 2 + i%4
		}
	}
	run := func(s int) (*Result, *inboxLog) {
		var events, refEvents eventLog
		res, il, err := gossipRun(Async, g, s, sched, seed, d, halts, &events)
		if err != nil {
			t.Fatal(err)
		}
		if il.err != nil {
			t.Fatalf("%s, IDs spread by %d: %v", label, s, il.err)
		}
		if err := res.Metrics.Reconcile(); err != nil {
			t.Fatalf("%s, IDs spread by %d: %v", label, s, err)
		}
		if s != stride {
			return res, il
		}
		ref, _, err := gossipRun(ReferenceEngine(Async), g, s, sched, seed, d, halts, &refEvents)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(events.b, refEvents.b) {
			t.Fatalf("%s, IDs spread by %d: event log\n%s\nreference\n%s", label, s, events.b, refEvents.b)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%s, IDs spread by %d: result %+v, reference %+v", label, s, res, ref)
		}
		return res, il
	}
	dense, dl := run(1)
	if stride == 1 {
		return false
	}
	sparse, sl := run(stride)
	if !slices.Contains(idBlindSchedules, sched) {
		return false
	}
	if err := sameRunByRank(dense, sparse, dl, sl, stride); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return true
}

// FuzzRunStateOrder decodes a small graph, an ID stride, a schedule, a
// seed and a message-adversary budget, and runs gossip players on it (see
// checkSpreadRun): every inbox in contract order, metrics that reconcile,
// the reference twin's event log and Result, and, for stride > 1 under an
// ID-blind schedule, the same run by rank as on IDs 0..n-1. Layout:
//
//	[0] n = 2 + b%7 nodes      [1] ID stride 1 + b%8 (1 = dense)
//	[2] schedule b%5, in SchedulerNames order
//	[3] seed                   [4] budget b%3 of the random message
//	                               adversary (0 = none)
//
// then one bit per node pair (u < v) for the edges; missing bytes read as
// all edges present. The seed corpus holds a dense and a sparse input per
// schedule.
func FuzzRunStateOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 2 + at(0)%7
		stride := 1 + at(1)%8
		names := SchedulerNames()
		sched := names[at(2)%len(names)]
		seed, d := int64(at(3)), at(4)%3
		g := graph.NewWithNodes(n)
		k := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if i := 5 + k/8; i >= len(data) || data[i]&(1<<(k%8)) != 0 {
					g.AddEdge(u, v)
				}
				k++
			}
		}
		label := fmt.Sprintf("%v, stride %d, %s seed %d, budget %d", g, stride, sched, seed, d)
		checkSpreadRun(t, label, g, stride, sched, seed, d)
	})
}

// completeGraph returns K_n over 0..n-1.
func completeGraph(n int) *graph.Graph {
	g := graph.NewWithNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

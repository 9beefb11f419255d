package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"rmt/internal/graph"
)

// The reference side of the loss-sweep differential: the per-recipient
// sweeps the run state used before they became passes of one recipient
// scatter (groupByRank), kept as they were up to naming and reading the
// calendar through its methods. Each rescans its messages once per
// distinct recipient, which is what fixes the Lose event order every sweep
// must keep: recipients ascending, merge order within a recipient.

func refContainsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func refLoseHalted(st *runState, round int, flat []Message) []Message {
	if st.haltedN == 0 {
		return flat
	}
	lost := 0
	for _, m := range flat {
		if st.isHalted(m.To) {
			lost++
		}
	}
	if lost == 0 {
		return flat
	}
	tos := make([]int, 0, 8)
	for _, m := range flat {
		if st.isHalted(m.To) && !refContainsInt(tos, m.To) {
			tos = append(tos, m.To)
		}
	}
	sort.Ints(tos)
	for _, to := range tos {
		for _, m := range flat {
			if m.To == to {
				st.lose(round, m)
			}
		}
	}
	kept := flat[:0]
	for _, m := range flat {
		if !st.isHalted(m.To) {
			kept = append(kept, m)
		}
	}
	return kept
}

func refDrainCalendar(st *runState) {
	if st.inFlight == 0 {
		return
	}
	for i := st.nextFiled(0); i >= 0; i = st.nextFiled(st.cal[i].at) {
		at, flat := st.cal[i].at, st.cal[i].msgs
		var tos []int
		for _, m := range flat {
			if !refContainsInt(tos, m.To) {
				tos = append(tos, m.To)
			}
		}
		sort.Ints(tos)
		for _, to := range tos {
			for _, m := range flat {
				if m.To == to {
					st.lose(at, m)
					st.inFlight--
				}
			}
		}
		st.cal[i].msgs = flat[:0]
	}
	st.inFlight = 0
}

func refLoseSevered(st *runState) {
	g := st.cfg.Graph
	for i := st.nextFiled(0); i >= 0; i = st.nextFiled(st.cal[i].at) {
		at, flat := st.cal[i].at, st.cal[i].msgs
		var tos []int
		for _, m := range flat {
			if !g.HasEdge(m.From, m.To) && !refContainsInt(tos, m.To) {
				tos = append(tos, m.To)
			}
		}
		if len(tos) == 0 {
			continue
		}
		sort.Ints(tos)
		for _, to := range tos {
			for _, m := range flat {
				if m.To == to && !g.HasEdge(m.From, m.To) {
					st.lose(at, m)
					st.inFlight--
				}
			}
		}
		kept := flat[:0]
		for _, m := range flat {
			if g.HasEdge(m.From, m.To) {
				kept = append(kept, m)
			}
		}
		st.cal[i].msgs = kept
	}
}

// ReferenceEngine returns the twin of the built-in engine e whose round
// loop sweeps losses with the per-recipient references above. Its runs must
// be event-for-event identical to e's; the network_test differential runs
// the registry protocols and the pre-tally players through both.
func ReferenceEngine(e Engine) Engine { return refEngine{e} }

type refEngine struct{ Engine }

func (r refEngine) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Engine = r.Engine
	switch r.Name() {
	case EngineAsync:
		if cfg.Scheduler == nil {
			cfg.Scheduler = SyncScheduler{}
		}
	case EngineLockstep, EngineGoroutine:
		cfg.Scheduler = nil
	default:
		return nil, fmt.Errorf("no reference twin for engine %q", r.Name())
	}
	return refRunRounds(cfg, r.Name() == EngineGoroutine)
}

// refStripHalted sweeps round's messages to halted recipients out of the
// calendar with refLoseHalted, before takePending would.
func refStripHalted(st *runState, round int) {
	if s := st.filed(round); s != nil {
		kept := refLoseHalted(st, round, s.msgs)
		st.inFlight -= len(s.msgs) - len(kept)
		s.msgs = kept
	}
}

// refRunRounds is runRounds with the reference sweeps swapped in: halted
// recipients are stripped before takePending and the calendar is drained
// before result, each of which then finds nothing left to sweep. Churn
// still goes through applyChurn; TestLossSweepsMatchReference covers
// loseSevered.
func refRunRounds(cfg Config, parallel bool) (*Result, error) {
	st := newRunState(cfg)
	bufs, outboxes := st.setupBufs()
	halted := st.haltFlags
	var wg *sync.WaitGroup
	if parallel {
		wg = new(sync.WaitGroup)
	}
	st.compute(0, bufs, outboxes, halted, wg)
	st.mergeRound(0, bufs, halted)
	st.sealRound(0)
	st.refreshDecisions()

	var err error
	for round := 1; round <= st.maxRounds; round++ {
		if cfg.Context != nil {
			if err = cfg.Context.Err(); err != nil {
				break
			}
		}
		st.applyChurn(round)
		refStripHalted(st, round)
		quiescent := st.takePending(round) == 0 && !st.futureLive()
		if quiescent && st.allHalted() {
			break
		}

		st.compute(round, bufs, outboxes, halted, wg)
		st.mergeRound(round, bufs, halted)
		sent := st.sealRound(round)
		st.rounds = round
		st.recycle()
		if st.stopEarly() {
			break
		}
		if quiescent && sent == 0 && !st.churnPending() {
			break
		}
	}
	st.refreshDecisions()
	refDrainCalendar(st)
	res := st.result()
	st.release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// lossLog records Lose events, the only events the sweeps emit.
type lossLog struct {
	NopTracer
	events []string
}

func (l *lossLog) Lose(round int, m Message) {
	l.events = append(l.events, fmt.Sprintf("%d:%d>%d:%s", round, m.From, m.To, m.Payload.Key()))
}

// sweepState builds a run state over a seeded random graph whose calendar
// holds seeded random sends: several delivery rounds, repeated recipients
// and senders in merge order (sender-ascending per round, as merges emit
// them), and a seeded set of halted players. Dense and sparse node IDs
// both occur, so rank takes both of its branches. Equal seeds build equal
// states.
func sweepState(seed int64) (*runState, *lossLog) {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(12)
	stride := 1
	if r.Intn(3) == 0 {
		stride = 1 + r.Intn(70) // sparse IDs
	}
	g := graph.New()
	procs := map[int]Process{}
	for i := 0; i < n; i++ {
		g.AddNode(i * stride)
		procs[i*stride] = silentProc{}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(2) == 0 {
				g.AddEdge(i*stride, j*stride)
			}
		}
	}
	log := &lossLog{}
	st := newRunState(Config{Graph: g, Processes: procs, Tracers: []Tracer{log}})
	for rounds := 1 + r.Intn(4); rounds > 0; rounds-- {
		at := 1 + r.Intn(6)
		var flat []Message
		for k := r.Intn(30); k > 0; k-- {
			flat = append(flat, Message{
				From:    r.Intn(n) * stride,
				To:      r.Intn(n) * stride,
				Payload: textPayload(fmt.Sprintf("p%d", r.Intn(5))),
			})
		}
		sort.SliceStable(flat, func(i, j int) bool { return flat[i].From < flat[j].From })
		if len(flat) > 0 {
			s := st.slot(at)
			s.msgs = append(s.msgs, flat...)
			st.inFlight += len(flat)
		}
	}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			st.halted[i] = true
			st.haltedN++
		}
	}
	return st, log
}

// calendarOf returns st's delivery calendar as a map from delivery round
// to messages, in merge order.
func calendarOf(st *runState) map[int][]Message {
	cal := map[int][]Message{}
	for _, s := range st.cal {
		if len(s.msgs) > 0 {
			cal[s.at] = slices.Clone(s.msgs)
		}
	}
	return cal
}

// TestLossSweepsMatchReference is the unit side of the loss-sweep
// differential: on 1,500 seeded calendars, takePending (which records the
// losses to halted recipients as it groups inboxes), loseSevered (after
// seeded edge removals) and drainCalendar emit exactly the references'
// Lose events in the references' order and leave the same inboxes,
// calendar and in-flight count.
func TestLossSweepsMatchReference(t *testing.T) {
	losses := 0
	for seed := int64(0); seed < 1500; seed++ {
		got, gotLog := sweepState(seed)
		want, wantLog := sweepState(seed)

		round := 1 + int(seed%6)
		gotLive := got.takePending(round)
		refStripHalted(want, round)
		wantLive := want.takePending(round)
		if gotLive != wantLive || !reflect.DeepEqual(got.inboxes, want.inboxes) {
			t.Fatalf("seed %d: takePending delivered %d in %v, reference %d in %v", seed, gotLive, got.inboxes, wantLive, want.inboxes)
		}
		got.recycle()
		want.recycle()

		r := rand.New(rand.NewSource(^seed))
		cut := got.cfg.Graph.Clone()
		for _, e := range cut.Edges() {
			if r.Intn(3) == 0 {
				cut.RemoveEdge(e[0], e[1])
			}
		}
		got.cfg.Graph, want.cfg.Graph = cut, cut
		got.loseSevered()
		refLoseSevered(want)
		if gc, wc := calendarOf(got), calendarOf(want); !reflect.DeepEqual(gc, wc) || got.inFlight != want.inFlight {
			t.Fatalf("seed %d: loseSevered left %v (%d in flight), reference %v (%d)",
				seed, gc, got.inFlight, wc, want.inFlight)
		}

		got.drainCalendar()
		refDrainCalendar(want)
		if gc := calendarOf(got); len(gc) != 0 || got.inFlight != 0 {
			t.Fatalf("seed %d: drainCalendar left %v (%d in flight)", seed, gc, got.inFlight)
		}
		if !reflect.DeepEqual(gotLog.events, wantLog.events) {
			t.Fatalf("seed %d: Lose events\n got %v\nwant %v", seed, gotLog.events, wantLog.events)
		}
		losses += len(gotLog.events)
		got.release()
		want.release()
	}
	if losses < 10000 {
		t.Fatalf("only %d Lose events compared", losses)
	}
}

// sortedRounds returns the delivery rounds of cal, ascending.
func sortedRounds(cal map[int][]Message) []int {
	rounds := make([]int, 0, len(cal))
	for at := range cal {
		rounds = append(rounds, at)
	}
	sort.Ints(rounds)
	return rounds
}

// scriptedScheduler delivers its i-th message in round ats[i].
type scriptedScheduler struct{ ats []int }

func (*scriptedScheduler) Name() string { return "scripted" }

func (s *scriptedScheduler) DeliverAt(int, Message) int {
	at := s.ats[0]
	s.ats = s.ats[1:]
	return at
}

// TestCalendarMatchesMap drives the ring calendar and a map from delivery
// round to messages through the same seeded runs of file (merge), sweep
// (loseSevered after seeded edge removals), take (takePending, with
// seeded halts) and drain. Delivery rounds reach MaxRounds, and the final
// round's sends land up to MaxRounds past it, so the ring must grow from
// its first length. After every step the calendar and the in-flight count
// must equal the map's; every inbox must hold the map's messages for its
// player in contract order; and the Lose events must be the map's, in
// delivery round order, recipients ascending, merge order within a
// recipient.
func TestCalendarMatchesMap(t *testing.T) {
	grew, losses := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, stride := 2+r.Intn(8), 1+r.Intn(3)*5
		g := graph.New()
		procs := map[int]Process{}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * stride
			g.AddNode(ids[i])
			procs[ids[i]] = silentProc{}
		}
		for i := range ids {
			for j := i + 1; j < n; j++ {
				g.AddEdge(ids[i], ids[j])
			}
		}
		maxRounds := 2 + r.Intn(40)
		log := &lossLog{}
		sched := &scriptedScheduler{}
		st := newRunState(Config{Graph: g, Processes: procs, MaxRounds: maxRounds, Scheduler: sched, Tracers: []Tracer{log}})
		st.cal = make([]calSlot, minCalSlots) // grow from the first length
		st.setupBufs()

		model := map[int][]Message{}
		var want []string
		lose := func(at int, msgs []Message, lost func(Message) bool) {
			for _, v := range ids {
				for _, m := range msgs {
					if m.To == v && lost(m) {
						want = append(want, fmt.Sprintf("%d:%d>%d:%s", at, m.From, m.To, m.Payload.Key()))
					}
				}
			}
		}
		check := func(step string, round int) {
			t.Helper()
			inFlight := 0
			for _, msgs := range model {
				inFlight += len(msgs)
			}
			if got := calendarOf(st); !reflect.DeepEqual(got, model) || st.inFlight != inFlight {
				t.Fatalf("seed %d, round %d, after %s: calendar %v (%d in flight), map %v (%d)", seed, round, step, got, st.inFlight, model, inFlight)
			}
		}
		for round := 0; round <= maxRounds; round++ {
			if round > 0 {
				if r.Intn(4) == 0 {
					cut := st.cfg.Graph.Clone()
					for _, e := range cut.Edges() {
						if r.Intn(4) == 0 {
							cut.RemoveEdge(e[0], e[1])
						}
					}
					st.cfg.Graph = cut
					st.loseSevered()
					severed := func(m Message) bool { return !cut.HasEdge(m.From, m.To) }
					for _, at := range sortedRounds(model) {
						lose(at, model[at], severed)
						if kept := slices.DeleteFunc(model[at], severed); len(kept) > 0 {
							model[at] = kept
						} else {
							delete(model, at)
						}
					}
					check("sweep", round)
				}
				if i := r.Intn(2 * n); i < n && !st.halted[i] {
					st.halted[i] = true
					st.haltedN++
				}
				due := model[round]
				delete(model, round)
				live := st.takePending(round)
				lose(round, due, func(m Message) bool { return st.isHalted(m.To) })
				wantLive := 0
				for i, v := range ids {
					var inbox []Message
					for _, m := range due {
						if m.To == v && !st.halted[i] {
							inbox = append(inbox, m)
						}
					}
					sort.SliceStable(inbox, func(a, b int) bool {
						if inbox[a].From != inbox[b].From {
							return inbox[a].From < inbox[b].From
						}
						return inbox[a].Payload.Key() < inbox[b].Payload.Key()
					})
					if !reflect.DeepEqual(st.inboxes[i], inbox) {
						t.Fatalf("seed %d, round %d: inbox of %d is %v, want %v", seed, round, v, st.inboxes[i], inbox)
					}
					wantLive += len(inbox)
				}
				if live != wantLive {
					t.Fatalf("seed %d, round %d: %d live deliveries, want %d", seed, round, live, wantLive)
				}
				st.recycle()
				check("take", round)
			}
			buf := &st.bufs[0]
			buf.truncate()
			for k := r.Intn(3 * n); k > 0; k-- {
				from, to := ids[r.Intn(n)], ids[r.Intn(n)]
				if from == to {
					continue
				}
				at := round + 1 + r.Intn(maxRounds)
				if round < maxRounds {
					at = min(at, maxRounds)
				}
				m := Message{From: from, To: to, Payload: textPayload(fmt.Sprintf("p%d", r.Intn(4)))}
				buf.recs = append(buf.recs, sendRec{msg: m, ok: true})
				sched.ats = append(sched.ats, at)
				model[at] = append(model[at], m)
			}
			st.merge(round, buf)
			check("file", round)
		}
		if len(st.cal) > minCalSlots {
			grew++
		}
		st.drainCalendar()
		for _, at := range sortedRounds(model) {
			lose(at, model[at], func(Message) bool { return true })
		}
		clear(model)
		check("drain", maxRounds)
		if !slices.Equal(log.events, want) {
			t.Fatalf("seed %d: Lose events\n got %v\nwant %v", seed, log.events, want)
		}
		losses += len(want)
		st.release()
	}
	t.Logf("the ring grew in %d runs of 400; %d Lose events compared", grew, losses)
	if grew < 300 || losses < 20000 {
		t.Fatal("too few growths or losses to compare")
	}
}

package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"rmt/internal/graph"
)

// The reference side of the loss-sweep differential: the per-recipient
// sweeps the run state used before they became one stable pass (loseWhere),
// kept as they were up to naming. Each rescans its messages once per
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
	rounds := make([]int, 0, len(st.future))
	for at := range st.future {
		rounds = append(rounds, at)
	}
	sort.Ints(rounds)
	for _, at := range rounds {
		flat := st.future[at]
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
		st.freeFlat = append(st.freeFlat, flat[:0])
	}
	clear(st.future)
	st.inFlight = 0
}

func refLoseSevered(st *runState) {
	g := st.cfg.Graph
	rounds := make([]int, 0, len(st.future))
	for at, flat := range st.future {
		for _, m := range flat {
			if !g.HasEdge(m.From, m.To) {
				rounds = append(rounds, at)
				break
			}
		}
	}
	sort.Ints(rounds)
	for _, at := range rounds {
		flat := st.future[at]
		var tos []int
		for _, m := range flat {
			if !g.HasEdge(m.From, m.To) && !refContainsInt(tos, m.To) {
				tos = append(tos, m.To)
			}
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
		if len(kept) == 0 {
			delete(st.future, at)
			st.freeFlat = append(st.freeFlat, kept)
		} else {
			st.future[at] = kept
		}
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
		if flat, ok := st.future[round]; ok {
			kept := refLoseHalted(st, round, flat)
			st.inFlight -= len(flat) - len(kept)
			st.future[round] = kept
		}
		live := st.takePending(round)
		if live == 0 && st.futureLive() == 0 && st.allHalted() {
			break
		}
		quiescent := live == 0 && st.futureLive() == 0

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
			st.future[at] = append(st.future[at], flat...)
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

// TestLossSweepsMatchReference is the unit side of the loss-sweep
// differential: on 1,500 seeded calendars, loseHalted, loseSevered (after
// seeded edge removals) and drainCalendar emit exactly the references' Lose
// events in the references' order and leave the same survivors, calendar
// and in-flight count.
func TestLossSweepsMatchReference(t *testing.T) {
	losses := 0
	for seed := int64(0); seed < 1500; seed++ {
		got, gotLog := sweepState(seed)
		want, wantLog := sweepState(seed)

		round := 1 + int(seed%6)
		gotKept := got.loseHalted(round, append([]Message(nil), got.future[round]...))
		wantKept := refLoseHalted(want, round, append([]Message(nil), want.future[round]...))
		if len(gotKept) != len(wantKept) || (len(gotKept) > 0 && !reflect.DeepEqual(gotKept, wantKept)) {
			t.Fatalf("seed %d: loseHalted kept %v, reference kept %v", seed, gotKept, wantKept)
		}

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
		if !reflect.DeepEqual(got.future, want.future) || got.inFlight != want.inFlight {
			t.Fatalf("seed %d: loseSevered left %v (%d in flight), reference %v (%d)",
				seed, got.future, got.inFlight, want.future, want.inFlight)
		}

		got.drainCalendar()
		refDrainCalendar(want)
		if len(got.future) != 0 || got.inFlight != 0 {
			t.Fatalf("seed %d: drainCalendar left %v (%d in flight)", seed, got.future, got.inFlight)
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

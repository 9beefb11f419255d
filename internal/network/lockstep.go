package network

import "sync"

// lockstepEngine is the deterministic single-goroutine engine: players step
// in increasing ID order with synchronous next-round delivery.
type lockstepEngine struct{}

// Name implements Engine.
func (lockstepEngine) Name() string { return EngineLockstep }

// Run implements Engine. Lockstep delivery is strictly synchronous, so any
// Scheduler left in the config is cleared before the run state is built.
func (e lockstepEngine) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		cfg.Engine = e
	}
	cfg.Scheduler = nil
	return runRounds(cfg, false)
}

// runRounds is the round loop shared by every in-process engine. Each round
// has a compute phase, in which every live player runs against its inbox
// and buffers its sends, and a merge phase, in which the buffers are folded
// into the delivery calendar in player-ID order. The async engine reuses
// the loop verbatim (all asynchrony lives in the delivery calendar the
// Scheduler fills), and the wire engine reaches it through proxy processes.
//
// With parallel set — the goroutine engine — each player's compute step
// runs in its own goroutine, joined at a barrier before the merge. Each
// player writes only its own buffer and halt flag, so the concurrent phase
// is data-race free, and the ID-order merge makes the run identical to the
// sequential one for deterministic protocols. Without it the run is
// single-goroutine and fully deterministic.
func runRounds(cfg Config, parallel bool) (*Result, error) {
	st := newRunState(cfg)

	// Per-player buffers and outboxes live for the whole run, Init
	// included (recs are truncated, not reallocated, each round): the
	// round loop is the simulator's hot path and must not allocate per
	// player per round.
	bufs, outboxes := st.setupBufs()
	haltNow := st.haltFlags
	var wg *sync.WaitGroup
	if parallel {
		wg = new(sync.WaitGroup)
	}

	// Round 0: Init. Each player's sends merge as one batch per player in
	// ID order — the same event order the round loop emits.
	st.compute(0, bufs, outboxes, haltNow, wg)
	st.mergeRound(0, bufs, haltNow)
	st.sealRound(0)
	st.refreshDecisions() // record Init-time decisions as round 0

	var err error
	for round := 1; round <= st.maxRounds; round++ {
		if cfg.Context != nil {
			if err = cfg.Context.Err(); err != nil {
				break
			}
		}
		st.applyChurn(round)
		live := st.takePending(round)
		if live == 0 && st.futureLive() == 0 && st.allHalted() {
			break
		}
		quiescent := live == 0 && st.futureLive() == 0

		st.compute(round, bufs, outboxes, haltNow, wg)
		st.mergeRound(round, bufs, haltNow)
		sent := st.sealRound(round)
		st.rounds = round
		// The round is fully processed: inboxes handed out this round are
		// dead, so their buffer can back future deliveries.
		st.recycle()
		if st.stopEarly() {
			break
		}
		// Quiescence: nothing was in flight and nothing new was produced,
		// so every later round is identical — stop. Pending churn blocks
		// the shortcut: a future edge addition can revive rejected sends.
		if quiescent && sent == 0 && !st.churnPending() {
			break
		}
	}
	// Players may poll the context too and give up work mid-round (the
	// RMT-PKA receiver does), so a run whose context ended in its last
	// round has no result either.
	if err == nil && cfg.Context != nil {
		err = cfg.Context.Err()
	}
	// An aborted run still drains its calendar, so the pooled state is
	// clean for the next run.
	res := st.result()
	st.release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compute runs the compute phase of round (0 = Init): every live player's
// step against its inbox, with sends buffered in bufs and halts flagged in
// haltNow. A non-nil wg runs each step in its own goroutine and waits for
// all of them.
func (st *runState) compute(round int, bufs []sendBuf, outboxes []Outbox, haltNow []bool, wg *sync.WaitGroup) {
	for i, v := range st.ids {
		if st.halted[i] {
			continue
		}
		var inbox []Message
		if round > 0 {
			inbox = st.inboxes[i]
			st.noteInbox(v, round, inbox)
		}
		bufs[i].truncate()
		if wg == nil {
			haltNow[i] = step(st.procs[i], round, inbox, outboxes[i])
			continue
		}
		wg.Add(1)
		go stepAndSignal(wg, st.procs[i], round, inbox, outboxes[i], &haltNow[i])
	}
	if wg != nil {
		wg.Wait()
	}
}

// mergeRound is the merge phase of round: every live player's buffered
// sends, then its halt, in player-ID order.
func (st *runState) mergeRound(round int, bufs []sendBuf, haltNow []bool) {
	for i := range st.ids {
		if st.halted[i] {
			continue
		}
		st.merge(round, &bufs[i])
		if haltNow[i] {
			st.halt(round, i)
		}
	}
}

// step runs one player's compute step — Init in round 0, Round afterwards
// — and reports whether the player halted.
func step(p Process, round int, inbox []Message, out Outbox) bool {
	if round == 0 {
		p.Init(out)
		return false
	}
	return !p.Round(round, inbox, out)
}

// stepAndSignal is step on its own goroutine: the goroutine engine's unit
// of work. It writes only its player's halt flag.
func stepAndSignal(wg *sync.WaitGroup, p Process, round int, inbox []Message, out Outbox, halted *bool) {
	defer wg.Done()
	*halted = step(p, round, inbox, out)
}

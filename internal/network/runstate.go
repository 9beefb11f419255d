package network

import (
	"slices"
	"sync"
)

// runState holds the bookkeeping shared by both engines. One engine round
// proceeds as: takePending (messages sent last round) → per-player Round
// calls writing into per-player send buffers → merge buffers in ID order →
// sealRound. Keeping merges in ID order makes the goroutine engine's
// observable behavior identical to lockstep for deterministic protocols.
//
// Every per-player structure is a slice indexed by rank, a player's
// position in ascending ID order: for IDs 0..n-1 the rank is the ID, and
// any other ID set is the same run under a monotone relabelling. The round
// loop already walks players by rank; a message's recipient is mapped once
// with rank.
//
// All instrumentation — complexity metrics, the transcript, and any
// user-installed observers — flows through the Tracer event stream: the
// engine itself only moves messages. Tracer calls all happen on the
// coordinating goroutine (merges and inbox hand-offs are serialized even
// under the goroutine engine), so tracers need no locking. The metrics
// tracer is called through a concrete field, because it sits on the hot
// path of every run; every other tracer, the transcript recorder included,
// goes through the extra slice.
//
// statePool recycles runState values — buffers, outbox closures and
// bookkeeping included — across runs. A protocol run is short (tens of
// microseconds) and experiment drivers execute thousands of them over the
// same or similar topologies, so per-run engine scaffolding dominates the
// allocation profile unless it is amortized here. Everything that escapes
// into the caller's Result (decision maps, metrics slices, transcripts) is
// allocated fresh per run and detached before the state is pooled.
var statePool sync.Pool

type runState struct {
	cfg       Config
	ids       []int     // node IDs, ascending: a player's rank is its index here
	bufs      []sendBuf // per-player send buffers, reused across runs
	outs      []Outbox  // outboxes bound to bufs (see setupBufs)
	slab      []sendRec // backing store the send buffers are carved from
	per       int       // records per buffer in slab
	haltFlags []bool    // per-player halt flags of the compute phase
	maxRounds int
	procs     []Process        // procs[i] = cfg.Processes[ids[i]]
	halted    []bool           // halted[i]: player ids[i] has halted
	haltedN   int              // number of halted players
	decided   []bool           // decided[i]: ids[i] is in the decisions map
	cal       []calSlot        // delivery calendar: round at in cal[at mod len(cal)]
	inboxes   [][]Message      // inboxes[i]: this round's inbox of ids[i]
	grouped   []Message        // messages grouped by recipient rank; the inboxes view it
	counts    []int            // scatter offsets by recipient rank, reused every scatter
	inFlight  int              // undelivered scheduled messages
	sched     Scheduler        // nil = synchronous delivery at sent+1
	madv      MessageAdversary // nil = no message suppression
	churn     []ChurnEvent     // validated topology edits, in round order
	churnIdx  int              // first churn event not yet applied
	extra     []Tracer         // every observer but the metrics tracer
	mt        MetricsTracer
	tt        *TranscriptTracer // nil unless Config.RecordTranscript
	rounds    int
	roundSend int
	decisions map[int]Value
	decidedAt map[int]int
}

func newRunState(cfg Config) *runState {
	st, _ := statePool.Get().(*runState)
	if st == nil {
		st = &runState{cal: make([]calSlot, minCalSlots)}
	}
	st.cfg = cfg
	// Node sets iterate in ascending order, so ids comes out sorted.
	ids := st.ids[:0]
	cfg.Graph.Nodes().ForEach(func(v int) bool {
		ids = append(ids, v)
		return true
	})
	st.ids = ids
	n := len(ids)
	st.maxRounds = cfg.maxRounds()
	st.haltedN = 0
	st.inFlight = 0
	st.churn, st.churnIdx = cfg.Churn, 0
	st.rounds, st.roundSend = 0, 0
	// The decision maps escape into the caller's Result, so they are the
	// one piece of bookkeeping allocated fresh every run.
	st.decisions = make(map[int]Value, n)
	st.decidedAt = make(map[int]int, n)
	st.procs = resize(st.procs, n)
	for i, v := range ids {
		st.procs[i] = cfg.Processes[v]
	}
	st.halted = resize(st.halted, n)
	st.decided = resize(st.decided, n)
	st.inboxes = resize(st.inboxes, n)
	// MessagesPerRound escapes through Result.Metrics; the other counters
	// are plain values, so resetting the tracer wholesale is enough.
	st.mt = MetricsTracer{}
	st.mt.m.MessagesPerRound = make([]int, 0, st.maxRounds+1)
	// Engines normalize Config.Scheduler in their Run wrappers (synchronous
	// engines clear it, async defaults it to SyncScheduler), so delivery
	// policy is taken verbatim — run state never inspects the engine. The
	// message adversary, unlike the scheduler, applies to every in-process
	// engine: suppression is a property of the channels, not of timing.
	st.sched = cfg.Scheduler
	st.madv = cfg.MsgAdversary
	// The transcript recorder heads a fresh slice rather than being
	// appended to cfg.Tracers, whose backing array is the caller's.
	st.tt = nil
	st.extra = cfg.Tracers
	if cfg.RecordTranscript {
		st.tt = NewTranscriptTracer()
		st.extra = append([]Tracer{st.tt}, cfg.Tracers...)
	}
	nodes, edges, engine := cfg.Graph.NumNodes(), cfg.Graph.NumEdges(), cfg.engine()
	st.mt.BeginRun(nodes, edges, engine)
	for _, tr := range st.extra {
		tr.BeginRun(nodes, edges, engine)
	}
	return st
}

// resize returns s with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// rank returns the index of node v in ids. Under the usual IDs 0..n-1 it
// is v itself; any other ID set pays a binary search.
func (st *runState) rank(v int) int {
	if uint(v) < uint(len(st.ids)) && st.ids[v] == v {
		return v
	}
	i, _ := slices.BinarySearch(st.ids, v)
	return i
}

// sendBuf collects one player's sends during one round.
type sendBuf struct {
	from int
	recs []sendRec
	used int // the most records recs has held this run
}

type sendRec struct {
	msg Message
	ok  bool
}

// truncate empties the buffer for the next round, remembering how far it
// was filled so that release zeroes no more than the run wrote.
func (b *sendBuf) truncate() {
	b.used = max(b.used, len(b.recs))
	b.recs = b.recs[:0]
}

// newOutbox returns the Outbox writing into buf as player buf.from. The
// edge check enforces authenticated channels: only existing links carry
// data. The sender is read from buf at send time, so a pooled closure
// serves whichever player its buffer is assigned to in the next run.
func (st *runState) newOutbox(buf *sendBuf) Outbox {
	return func(to int, p Payload) {
		v := buf.from
		ok := to != v && st.cfg.Graph.HasEdge(v, to)
		buf.recs = append(buf.recs, sendRec{msg: Message{From: v, To: to, Payload: p}, ok: ok})
	}
}

// setupBufs hands out the per-player send buffers and outboxes both
// engines use. Buffers live for the whole run (truncated, not
// reallocated, each round) and their initial capacity is carved from one
// slab sized by the average degree; a player that outgrows its window
// reallocates privately, so concurrent appends under the goroutine engine
// stay safe. A pooled runState reuses its slab whenever it is large
// enough, and its buffers and outbox closures whenever there are enough of
// them: the closures read the sender from their buffer and the graph
// through st.cfg, which newRunState has already repointed.
func (st *runState) setupBufs() ([]sendBuf, []Outbox) {
	n := len(st.ids)
	per := 8
	if n > 0 {
		if d := 4 * st.cfg.Graph.NumEdges() / n; d > per {
			per = d
		}
	}
	st.per = per
	if cap(st.slab) < n*per {
		st.slab = make([]sendRec, n*per)
	}
	if len(st.bufs) < n {
		st.bufs = make([]sendBuf, n)
		st.outs = make([]Outbox, n)
		for i := range st.bufs {
			st.outs[i] = st.newOutbox(&st.bufs[i])
		}
	}
	for i, v := range st.ids {
		st.bufs[i].from = v
		st.bufs[i].recs = st.slab[i*per : i*per : (i+1)*per]
	}
	st.haltFlags = resize(st.haltFlags, n)
	return st.bufs[:n], st.outs[:n]
}

// merge folds one player's send buffer into the delivery calendar, emitting
// Send/Drop (and, for scheduler-delayed messages, Delay) events. Must be
// called serially, in player-ID order, with the round in which the sends
// happened — that order is also the order in which the scheduler and the
// message adversary see the messages, which is what makes a seeded schedule
// (and a seeded suppression pattern) reproducible.
//
// Each calendar slot is one flat slice in merge order; recipient grouping
// and inbox ordering happen once, at delivery time (takePending), so the
// per-message path here is a bounds check and an append. Synchronous
// delivery lands every message of the batch in round+1, so the slot lookup
// is hoisted out of the loop; only a scheduler that scatters delivery
// rounds pays for repeated lookups.
func (st *runState) merge(round int, buf *sendBuf) {
	lastAt := -1
	var s *calSlot
	for _, r := range buf.recs {
		if !r.ok {
			st.mt.Drop(round, r.msg)
			for _, tr := range st.extra {
				tr.Drop(round, r.msg)
			}
			continue
		}
		st.roundSend++
		st.mt.Send(round, r.msg)
		for _, tr := range st.extra {
			tr.Send(round, r.msg)
		}
		// Message-adversary suppression: the copy counts as sent but is lost
		// immediately — its Lose event follows its Send, it never enters the
		// delivery calendar, and the scheduler never sees it.
		if st.madv != nil && st.madv.Suppress(round, r.msg) {
			st.lose(round+1, r.msg)
			continue
		}
		at := st.deliveryRound(round, r.msg)
		if at != lastAt {
			s, lastAt = st.slot(at), at
		}
		s.msgs = append(s.msgs, r.msg)
		st.inFlight++
		if at != round+1 {
			st.mt.Delay(round, at, r.msg)
			for _, tr := range st.extra {
				tr.Delay(round, at, r.msg)
			}
		}
	}
}

// calSlot is one slot of the delivery calendar: the messages due in round
// at, in merge order. A slot is free while msgs is empty, and it keeps its
// buffer for whichever round is filed into it next.
type calSlot struct {
	at   int
	msgs []Message
}

// minCalSlots is a new calendar's length: under synchronous delivery only
// the round being delivered and the next one ever hold messages.
const minCalSlots = 2

// slot returns the calendar slot for round at, filing at there if the slot
// is free. The calendar is a ring whose length is a power of two: round at
// lives in slot at mod len(st.cal), and when that slot holds another round
// the ring doubles until the two part. Its length follows the spread of
// the rounds filed at once: under the stock schedulers they lie within
// MaxSkew + 1 rounds of the current one or, for a partition, at its heal
// round + 1 (at most 6), so the ring stays at most eight slots long. A
// scheduler that files rounds far apart (a late heal round, or final-round
// sends far past the end, which are not clamped) can make it as long as
// that spread.
func (st *runState) slot(at int) *calSlot {
	for {
		s := &st.cal[at&(len(st.cal)-1)]
		if len(s.msgs) == 0 {
			s.at = at
			return s
		}
		if s.at == at {
			return s
		}
		// Double the ring and move every filed round to its slot there.
		// Filed rounds differ mod the old length, so they differ mod the
		// new one too. Free slots' buffers are dropped: a pooled run state
		// grows its ring once, to the longest its runs need.
		ring := make([]calSlot, 2*len(st.cal))
		for _, f := range st.cal {
			if len(f.msgs) > 0 {
				ring[f.at&(len(ring)-1)] = f
			}
		}
		st.cal = ring
	}
}

// filed returns the slot holding the messages due in round at, or nil
// when none are.
func (st *runState) filed(at int) *calSlot {
	s := &st.cal[at&(len(st.cal)-1)]
	if len(s.msgs) == 0 || s.at != at {
		return nil
	}
	return s
}

// nextFiled returns the index of the slot holding the earliest round after
// round after, or −1 when no later round is filed. Delivery rounds are
// positive, so the walk from nextFiled(0) visits every filed round in
// ascending order, without allocating.
func (st *runState) nextFiled(after int) int {
	next := -1
	for i, s := range st.cal {
		if len(s.msgs) > 0 && s.at > after && (next < 0 || s.at < st.cal[next].at) {
			next = i
		}
	}
	return next
}

// deliveryRound asks the scheduler (when one is installed) for the delivery
// round of a message sent in round, clamped into [round+1, maxRounds] so a
// scheduler can neither deliver into the past nor starve a message past the
// end of a bounded run — the engine-enforced eventual-delivery guarantee.
// Sends in the final round land past maxRounds (the clamp cannot apply to
// them), as under synchronous delivery; they are swept out of the calendar
// and recorded as losses when the run ends (see result), so MessagesSent
// still reconciles with MessagesDelivered + MessagesLost.
func (st *runState) deliveryRound(round int, m Message) int {
	if st.sched == nil {
		return round + 1
	}
	at := st.sched.DeliverAt(round, m)
	if at < round+1 {
		at = round + 1
	}
	if at > st.maxRounds && round+1 <= st.maxRounds {
		at = st.maxRounds
	}
	return at
}

// applyChurn applies the churn events scheduled for round. Edits take
// effect at the start of the round, before takePending, so a message in
// flight over an edge removed this round is lost rather than delivered.
// The config graph is repointed at an edited clone — never mutated — so
// the outbox closures (which read st.cfg.Graph at send time) reject sends
// over removed edges from this round on, while the caller's graph stays
// untouched.
func (st *runState) applyChurn(round int) {
	if st.churnIdx >= len(st.churn) || st.churn[st.churnIdx].Round != round {
		return
	}
	g := st.cfg.Graph.Clone()
	removedAny := false
	for st.churnIdx < len(st.churn) && st.churn[st.churnIdx].Round == round {
		ev := st.churn[st.churnIdx]
		st.churnIdx++
		for _, e := range ev.AddEdges {
			g.AddEdge(e[0], e[1])
		}
		for _, e := range ev.RemoveEdges {
			g.RemoveEdge(e[0], e[1])
			removedAny = true
		}
		st.mt.Churn(round, ev.AddEdges, ev.RemoveEdges)
		for _, tr := range st.extra {
			tr.Churn(round, ev.AddEdges, ev.RemoveEdges)
		}
	}
	st.cfg.Graph = g
	if removedAny {
		st.loseSevered()
	}
}

// churnPending reports whether churn events remain to be applied. While
// any are pending the engines must not quiescence-break: an edge addition
// can turn a player's rejected sends into accepted ones, so "nothing in
// flight and nothing sent" does not yet imply every later round is
// identical.
func (st *runState) churnPending() bool { return st.churnIdx < len(st.churn) }

// loseSevered sweeps the delivery calendar for messages whose carrying
// edge was just removed, recording each as a loss in the order
// drainCalendar uses: delivery rounds ascending, severed recipients
// ascending, merge order within a recipient (groupByRank's order).
// Survivors are compacted in place, keeping their merge order.
func (st *runState) loseSevered() {
	g := st.cfg.Graph
	severed := func(m Message) bool { return !g.HasEdge(m.From, m.To) }
	for i := st.nextFiled(0); i >= 0; i = st.nextFiled(st.cal[i].at) {
		s := &st.cal[i]
		if !slices.ContainsFunc(s.msgs, severed) {
			continue
		}
		for _, m := range st.groupByRank(s.msgs) {
			if severed(m) {
				st.lose(s.at, m)
			}
		}
		kept := slices.DeleteFunc(s.msgs, severed)
		st.inFlight -= len(s.msgs) - len(kept)
		s.msgs = kept
	}
}

// takePending removes the messages due for delivery in round and groups
// them into per-recipient inboxes sorted into the order the Process
// contract promises (sender ID, ties broken by payload key); engines fetch
// them from inboxes, by recipient rank. Messages addressed to players that
// have already halted can never be received; they are recorded as losses,
// in groupByRank's order, so the send/delivery accounting reconciles. It
// returns the number of deliverable messages — all addressed to live
// players, so this is also the round's live-delivery count. The inboxes
// are views into the grouping buffer; call recycle once the round is
// fully processed.
//
// Grouping is groupByRank's stable scatter, so each inbox starts in merge
// order, and one insertion pass (sortInbox) then sorts it. Under
// synchronous delivery merge order is already sender-ascending and the
// pass only compares keys within one sender's run; a scheduler that files
// several send rounds into one delivery round interleaves those runs, and
// the pass merges them.
func (st *runState) takePending(round int) int {
	s := st.filed(round)
	if s == nil {
		return 0
	}
	flat := s.msgs
	s.msgs = flat[:0]
	st.inFlight -= len(flat)
	grouped := st.groupByRank(flat)
	live, start := 0, 0
	for i, end := range st.counts { // counts[i] is now the end of rank i's group
		if end == start {
			continue
		}
		group := grouped[start:end:end]
		start = end
		if st.halted[i] {
			for _, m := range group {
				st.lose(round, m)
			}
			continue
		}
		sortInbox(group)
		st.inboxes[i] = group
		live += len(group)
	}
	return live
}

// groupByRank copies msgs into st.grouped by recipient rank, in one stable
// counting scatter: ranks ascending, merge order within a rank, which is
// also the order every loss sweep records its losses in. It leaves in
// st.counts the end of each rank's group and returns the grouped copy.
// takePending's inboxes view that copy until recycle; the loss sweeps
// group through it too, at times when no inbox is live (loseSevered runs
// before takePending, drainCalendar after the last round).
func (st *runState) groupByRank(msgs []Message) []Message {
	counts := resize(st.counts, len(st.ids))
	st.counts = counts
	for _, m := range msgs {
		counts[st.rank(m.To)]++
	}
	off := 0
	for i, c := range counts {
		counts[i] = off
		off += c
	}
	grouped := slices.Grow(st.grouped[:0], len(msgs))[:len(msgs)]
	for _, m := range msgs {
		i := st.rank(m.To)
		grouped[counts[i]] = m
		counts[i]++
	}
	st.grouped = grouped
	return grouped
}

// sortInbox is a stable insertion sort by sender, then payload key. Inboxes
// arrive as a few sender-ascending runs (one per send round delivered
// together), so the pass is near-linear, and it renders keys only where
// two messages share a sender, each moving message's once. Key() is cached
// on sealed payloads.
func sortInbox(inbox []Message) {
	for i := 1; i < len(inbox); i++ {
		m := inbox[i]
		k, keyed := "", false
		j := i
		for ; j > 0; j-- {
			p := inbox[j-1]
			if p.From == m.From {
				if !keyed {
					k, keyed = m.Payload.Key(), true
				}
				if p.Payload.Key() <= k {
					break
				}
			} else if p.From < m.From {
				break
			}
			inbox[j] = p
		}
		inbox[j] = m
	}
}

// isHalted reports whether player v has halted.
func (st *runState) isHalted(v int) bool { return st.halted[st.rank(v)] }

// recycle clears the inboxes handed out this round (from takePending).
// Callers must only recycle once the round is fully processed: inboxes
// alias the grouping buffer, and the Process contract lets players read
// them only during their Round call.
func (st *runState) recycle() { clear(st.inboxes) }

// lose reports one accepted send that will never reach a live player.
func (st *runState) lose(round int, m Message) {
	st.mt.Lose(round, m)
	for _, tr := range st.extra {
		tr.Lose(round, m)
	}
}

// drainCalendar sweeps the undelivered remainder of the delivery calendar
// at run end — sends made in the final round (necessarily undeliverable,
// as under synchronous delivery) and sends scheduled past an early stop —
// recording each as a loss, delivery rounds ascending and each round in
// groupByRank's order, and zeroing the in-flight count. Without the sweep
// these messages stayed in the calendar and st.inFlight forever: counted
// as MessagesSent but never delivered or dropped, so metrics did not
// reconcile.
func (st *runState) drainCalendar() {
	if st.inFlight == 0 {
		return
	}
	for i := st.nextFiled(0); i >= 0; i = st.nextFiled(st.cal[i].at) {
		s := &st.cal[i]
		for _, m := range st.groupByRank(s.msgs) {
			st.lose(s.at, m)
		}
		s.msgs = s.msgs[:0]
	}
	st.inFlight = 0
}

// release detaches everything that escaped into the Result, drops the
// references that would pin the caller's processes and graph, and returns
// the state — round buffers, outbox closures and all — to the pool.
func (st *runState) release() {
	st.recycle()
	// Zero the run's send records so the pooled slab pins no payloads. A
	// buffer that outgrew its slab window filled it first; its private
	// array is dropped.
	for i := range st.bufs {
		b := &st.bufs[i]
		if cap(b.recs) > st.per {
			clear(st.slab[i*st.per : (i+1)*st.per])
		} else {
			clear(b.recs[:max(b.used, len(b.recs))])
		}
		b.recs, b.used = nil, 0
	}
	clear(st.procs)
	st.cfg = Config{}
	st.extra = nil
	st.sched = nil
	st.madv = nil
	st.tt = nil
	st.churn = nil
	st.decisions, st.decidedAt = nil, nil
	st.mt = MetricsTracer{}
	statePool.Put(st)
}

// futureLive reports whether any scheduled-but-undelivered message is
// addressed to a player that has not halted. While one is, the run cannot
// be quiescent: a later round will still see new input.
func (st *runState) futureLive() bool {
	if st.inFlight == 0 {
		return false
	}
	for _, s := range st.cal {
		for _, m := range s.msgs {
			if !st.isHalted(m.To) {
				return true
			}
		}
	}
	return false
}

// sealRound closes the round's accounting and returns the number of sends
// the round produced (the engines' quiescence signal).
func (st *runState) sealRound(round int) int {
	sent := st.roundSend
	st.roundSend = 0
	st.mt.EndRound(round, sent)
	for _, tr := range st.extra {
		tr.EndRound(round, sent)
	}
	return sent
}

// noteInbox announces the inbox handed to live player v this round.
func (st *runState) noteInbox(v, round int, inbox []Message) {
	st.mt.Deliver(round, v, inbox)
	for _, tr := range st.extra {
		tr.Deliver(round, v, inbox)
	}
}

// halt marks the player of rank i as halted in the given round.
func (st *runState) halt(round, i int) {
	st.halted[i] = true
	st.haltedN++
	v := st.ids[i]
	st.mt.Halt(round, v)
	for _, tr := range st.extra {
		tr.Halt(round, v)
	}
}

func (st *runState) allHalted() bool {
	return st.haltedN == len(st.ids)
}

// stopEarly refreshes the decision map and evaluates the config predicate.
func (st *runState) stopEarly() bool {
	st.refreshDecisions()
	if st.cfg.StopEarly == nil {
		return false
	}
	return st.cfg.StopEarly(st.decisions)
}

func (st *runState) refreshDecisions() {
	for i, v := range st.ids {
		if st.decided[i] {
			continue
		}
		if val, ok := st.procs[i].Decision(); ok {
			st.decided[i] = true
			st.decisions[v] = val
			st.decidedAt[v] = st.rounds
			st.mt.Decide(st.rounds, v, val)
			for _, tr := range st.extra {
				tr.Decide(st.rounds, v, val)
			}
		}
	}
}

func (st *runState) result() *Result {
	st.refreshDecisions()
	st.drainCalendar()
	st.mt.EndRun(st.rounds)
	for _, tr := range st.extra {
		tr.EndRun(st.rounds)
	}
	res := &Result{
		Rounds:         st.rounds,
		Decisions:      st.decisions,
		DecidedAtRound: st.decidedAt,
		Metrics:        st.mt.Metrics(),
	}
	if st.tt != nil {
		res.Transcript = st.tt.Transcript()
	}
	return res
}

package network

import (
	"fmt"
	"sort"
)

// MessageAdversary is the message-suppression counterpart of Scheduler: a
// fault dimension orthogonal to Byzantine corruption (internal/byzantine)
// and to delivery timing. Following the Albouy–Frey–Raynal–Taïani model, the
// adversary may remove up to d copies of each broadcast — one sender's
// copies of one payload key in one round — independently of which nodes are
// corrupted. Suppressed copies still count as accepted sends (they emit a
// Send event and are charged to MessagesSent) and are immediately recorded
// as Lose events, so the conservation law MessagesSent = MessagesDelivered +
// MessagesLost reconciles; they never enter the delivery calendar, and the
// Scheduler is not consulted for them.
//
// The engine calls Suppress exactly once per accepted send, in the
// deterministic merge order (player-ID order, then send order within a
// player) — the same order in which the Scheduler sees messages — so an
// adversary seeded from a fixed stream reproduces the same suppression
// pattern byte-for-byte on every engine and at every worker count.
//
// Contract:
//
//   - at most Budget copies of any one broadcast may be suppressed (the
//     stock adversaries enforce this with a per-broadcast ledger, and the
//     conformance battery cross-checks the accounting);
//   - Suppress must be deterministic: no clocks, no unseeded randomness.
//
// Like Schedulers, MessageAdversaries are single-use: they keep per-run
// state (budget ledgers, victim sets) and must not be shared between runs.
type MessageAdversary interface {
	// Name is the registry name of the suppression policy.
	Name() string
	// Suppress reports whether the adversary suppresses this copy of a
	// message accepted in round.
	Suppress(round int, m Message) bool
	// Budget is d, the per-broadcast suppression budget.
	Budget() int
	// Suppressed is the number of copies suppressed so far.
	Suppressed() int
}

// Stock message-adversary policy names.
const (
	// MATargeted suppresses the first d copies of every broadcast in merge
	// order — maximally disruptive against low-degree senders, seed-free.
	MATargeted = "targeted"
	// MARandom flips a seeded coin per copy, suppressing while the
	// broadcast's budget lasts.
	MARandom = "random"
	// MAEclipse picks up to d victim nodes (seeded, from the recipients it
	// observes) and suppresses every copy addressed to a victim — the
	// worst-case shape for the n > 3t + 2d bound, where the adversary
	// starves a fixed set of d processes.
	MAEclipse = "eclipse"
)

// MessageAdversaryNames returns the stock policy names, sorted.
func MessageAdversaryNames() []string {
	names := []string{MATargeted, MARandom, MAEclipse}
	sort.Strings(names)
	return names
}

// NewMessageAdversary builds the named stock policy with per-broadcast
// budget d. The seed drives every random choice through a private splitmix64
// stream (targeted has none), so equal (name, d, seed) triples yield
// identical suppression patterns and distinct seeds yield decorrelated ones
// — the property the mafuzz sweep's per-trial seed derivation relies on.
func NewMessageAdversary(name string, d int, seed int64) (MessageAdversary, error) {
	if d < 0 {
		return nil, fmt.Errorf("network: negative message-adversary budget %d", d)
	}
	switch name {
	case MATargeted:
		return &targetedAdversary{ledger: newBudgetLedger(d)}, nil
	case MARandom:
		return &randomAdversary{ledger: newBudgetLedger(d), rng: newSplitMix(uint64(seed))}, nil
	case MAEclipse:
		return &eclipseAdversary{
			ledger: newBudgetLedger(d),
			rng:    newSplitMix(uint64(seed)),
			seen:   make(map[int]bool),
			victim: make(map[int]bool),
		}, nil
	default:
		return nil, fmt.Errorf("network: unknown message adversary %q (want one of %v)",
			name, MessageAdversaryNames())
	}
}

// MustMessageAdversary is NewMessageAdversary for static names known at
// compile time.
func MustMessageAdversary(name string, d int, seed int64) MessageAdversary {
	a, err := NewMessageAdversary(name, d, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// NewEclipse builds the eclipse adversary with an explicit victim set
// instead of seeded selection: every copy addressed to a victim is
// suppressed, budget d = len(victims). This is the construction the
// feasibility boundary battery uses to realize the worst case of the
// n > 3t + 2d bound with named victims.
func NewEclipse(victims ...int) MessageAdversary {
	a := &eclipseAdversary{
		ledger: newBudgetLedger(len(victims)),
		seen:   make(map[int]bool),
		victim: make(map[int]bool, len(victims)),
	}
	for _, v := range victims {
		a.seen[v] = true
		a.victim[v] = true
	}
	return a
}

// broadcastKey identifies one broadcast: one sender's copies of one payload
// in one round (the round is tracked by the ledger itself).
type broadcastKey struct {
	from int
	key  string
}

// budgetLedger enforces the per-broadcast budget d: take succeeds at most d
// times per (sender, payload key) pair within a round. It is the single
// choke point every stock policy charges suppressions through, so the
// contract holds by construction.
type budgetLedger struct {
	d     int
	round int
	used  map[broadcastKey]int
	total int
}

func newBudgetLedger(d int) *budgetLedger {
	return &budgetLedger{d: d, round: -1, used: make(map[broadcastKey]int)}
}

// take charges one suppression against the message's broadcast, reporting
// whether budget remained.
func (l *budgetLedger) take(round int, m Message) bool {
	if l.d <= 0 {
		return false
	}
	if round != l.round {
		clear(l.used)
		l.round = round
	}
	k := broadcastKey{from: m.From, key: m.Payload.Key()}
	if l.used[k] >= l.d {
		return false
	}
	l.used[k]++
	l.total++
	return true
}

// targetedAdversary suppresses the first d copies of every broadcast.
type targetedAdversary struct{ ledger *budgetLedger }

func (*targetedAdversary) Name() string      { return MATargeted }
func (a *targetedAdversary) Budget() int     { return a.ledger.d }
func (a *targetedAdversary) Suppressed() int { return a.ledger.total }

func (a *targetedAdversary) Suppress(round int, m Message) bool {
	return a.ledger.take(round, m)
}

// randomAdversary suppresses each copy on a seeded coin flip, while the
// broadcast's budget lasts.
type randomAdversary struct {
	ledger *budgetLedger
	rng    *splitmix64
}

func (*randomAdversary) Name() string      { return MARandom }
func (a *randomAdversary) Budget() int     { return a.ledger.d }
func (a *randomAdversary) Suppressed() int { return a.ledger.total }

func (a *randomAdversary) Suppress(round int, m Message) bool {
	// The coin is consumed before the budget check so the stream position
	// depends only on the merge order, not on earlier suppression outcomes.
	heads := a.rng.next()&1 == 1
	return heads && a.ledger.take(round, m)
}

// eclipseAdversary starves a set of victim nodes: every copy addressed to a
// victim is suppressed (budget permitting). Seeded construction classifies
// each newly observed recipient as a victim on a coin flip until d victims
// are chosen; the merge order is deterministic, so the victim set is too.
type eclipseAdversary struct {
	ledger *budgetLedger
	rng    *splitmix64 // nil for the explicit-victims construction
	seen   map[int]bool
	victim map[int]bool
}

func (*eclipseAdversary) Name() string      { return MAEclipse }
func (a *eclipseAdversary) Budget() int     { return a.ledger.d }
func (a *eclipseAdversary) Suppressed() int { return a.ledger.total }

func (a *eclipseAdversary) Suppress(round int, m Message) bool {
	if !a.seen[m.To] {
		a.seen[m.To] = true
		if a.rng != nil && len(a.victim) < a.ledger.d && a.rng.next()&1 == 1 {
			a.victim[m.To] = true
		}
	}
	return a.victim[m.To] && a.ledger.take(round, m)
}

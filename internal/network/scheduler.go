package network

import (
	"fmt"
	"math/bits"
	"sort"
)

// Scheduler is the async engine's delivery policy: it assigns a delivery
// round to every accepted send. The engine calls DeliverAt exactly once per
// accepted send, in the deterministic merge order (player-ID order, then
// send order within a player), so a scheduler seeded from a fixed stream
// reproduces the same schedule byte-for-byte on every run — including
// across worker counts when the seed derives from eval.TrialSeed.
//
// Contract:
//
//   - DeliverAt must return a round ≥ sent+1 (the engine clamps upward,
//     counting the clamp as a normal delivery, so a buggy scheduler cannot
//     deliver into the past);
//   - the extra delay must be bounded by MaxSkew rounds, except for
//     partition-style schedulers, whose delay is bounded by their heal
//     round. Bounded delay is the eventual-delivery guarantee: every
//     accepted send is delivered while the run still has rounds to spend
//     (the engine additionally clamps delivery to Config.MaxRounds so a
//     finite run realizes it).
//
// Schedulers are single-use: they may keep per-link state (FIFO ordering,
// reorder cycles) and must not be shared between runs.
type Scheduler interface {
	// Name is the registry name of the scheduling policy.
	Name() string
	// DeliverAt returns the delivery round for a message accepted in round
	// sent.
	DeliverAt(sent int, m Message) int
}

// MaxSkew bounds the extra delay (beyond the synchronous sent+1) the stock
// delay/reorder schedulers ever add.
const MaxSkew = 3

// Stock scheduler names.
const (
	SchedSync      = "sync"      // synchronous: every send delivered next round (zero-fault schedule)
	SchedRandom    = "random"    // seeded per-message delay in [1, 1+MaxSkew)
	SchedFIFO      = "fifo"      // seeded per-message delay, but FIFO order per directed link
	SchedLIFO      = "lifo"      // last-writer-first: per-link delay cycle 3,2,1, seed-phased per link
	SchedPartition = "partition" // seed-chosen bipartition delays crossing messages until a heal round
)

// SchedulerNames returns the stock scheduler names, sorted.
func SchedulerNames() []string {
	names := []string{SchedSync, SchedRandom, SchedFIFO, SchedLIFO, SchedPartition}
	sort.Strings(names)
	return names
}

// NewScheduler builds the named stock scheduler. The seed drives every
// random choice through a private splitmix64 stream — message delays for
// random/fifo, per-link cycle phases for lifo, the bipartition and heal
// round for partition; sync has no random choices. Equal (name, seed)
// pairs yield identical schedules, and distinct seeds yield decorrelated
// ones, the property the sweep's per-trial seed derivation relies on.
func NewScheduler(name string, seed int64) (Scheduler, error) {
	switch name {
	case SchedSync:
		return SyncScheduler{}, nil
	case SchedRandom:
		return &randomScheduler{rng: newSplitMix(uint64(seed))}, nil
	case SchedFIFO:
		return &fifoScheduler{rng: newSplitMix(uint64(seed))}, nil
	case SchedLIFO:
		return &lifoScheduler{seed: uint64(seed)}, nil
	case SchedPartition:
		return newPartitionScheduler(uint64(seed)), nil
	default:
		return nil, fmt.Errorf("network: unknown scheduler %q (want one of %v)", name, SchedulerNames())
	}
}

// MustScheduler is NewScheduler for static names known at compile time.
func MustScheduler(name string, seed int64) Scheduler {
	s, err := NewScheduler(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// splitmix64 is the splitmix64 PRNG stream (the same finalizer that
// eval.TrialSeed decorrelates trial seeds with) — tiny, allocation-free,
// and fully determined by its seed.
type splitmix64 struct{ x uint64 }

func newSplitMix(seed uint64) *splitmix64 { return &splitmix64{x: seed} }

func (s *splitmix64) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant for
// schedule sampling.
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// SyncScheduler is the zero-fault schedule: every message is delivered in
// the round after it was sent, exactly as the lockstep and goroutine
// engines deliver. The async engine under SyncScheduler is transcript- and
// decision-identical to lockstep, which the conformance suite asserts.
type SyncScheduler struct{}

// Name implements Scheduler.
func (SyncScheduler) Name() string { return SchedSync }

// DeliverAt implements Scheduler.
func (SyncScheduler) DeliverAt(sent int, _ Message) int { return sent + 1 }

// randomScheduler delays each message independently by 1..1+MaxSkew rounds,
// permuting both per-link order and round membership.
type randomScheduler struct{ rng *splitmix64 }

func (*randomScheduler) Name() string { return SchedRandom }

func (s *randomScheduler) DeliverAt(sent int, _ Message) int {
	return sent + 1 + s.rng.intn(MaxSkew+1)
}

// linkReserver is a scheduler that keeps per-link state in a linkTable
// (fifo, lifo): before a run's first round the async engine reserves it
// for the graph's directed links, 2|E|, so the table is allocated once
// unless churn adds links.
type linkReserver interface{ reserveLinks(n int) }

// linkTable is a scheduler's per-directed-link state: one int per link a
// run has used, zero for a link not yet used. It is an open-addressing
// table keyed by (from, to), sized to the links used — never to the
// largest ID, so sparse or huge IDs cost what IDs 0..n−1 do — and probed
// in place, so a send costs one hash and no map write.
type linkTable struct {
	slots []linkSlot // len is a power of two, at most 3/4 full
	used  int
	shift uint // 64 − log2(len(slots)): the hash's top bits index slots
}

// linkSlot is one link's state. Node IDs are never negative (they index
// node sets), so from+1 = 0 marks a free slot.
type linkSlot struct {
	from1, to, val int
}

// minLinkSlots is a table's first size: every link of a sparse run on a
// few dozen nodes, in one allocation.
const minLinkSlots = 64

// at returns the state of the link from → to, adding the link with state 0
// when it is new.
func (t *linkTable) at(from, to int) *int {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	h := (uint64(from)+1)*0x9e3779b97f4a7c15 ^ (uint64(to)+1)*0xbf58476d1ce4e5b9
	for i := int(h>>t.shift) & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.from1 == 0 {
			sl.from1, sl.to = from+1, to
			t.used++
			return &sl.val
		}
		if sl.from1 == from+1 && sl.to == to {
			return &sl.val
		}
	}
}

// reserve makes an empty table's first one large enough for n links, so a
// run that uses at most n links allocates it once; more links still grow
// it. A table that has slots keeps them.
func (t *linkTable) reserve(n int) {
	if t.slots != nil {
		return
	}
	size := minLinkSlots
	for 3*size < 4*n {
		size *= 2
	}
	t.resize(size)
}

// grow doubles the table (or makes its first one).
func (t *linkTable) grow() { t.resize(max(2*len(t.slots), minLinkSlots)) }

// resize moves the table to size slots, a power of two, and re-adds every
// link.
func (t *linkTable) resize(size int) {
	old := t.slots
	t.slots, t.used, t.shift = make([]linkSlot, size), 0, uint(64-bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.from1 != 0 {
			*t.at(sl.from1-1, sl.to) = sl.val
		}
	}
}

// fifoScheduler delays like randomScheduler but never lets a message
// overtake an earlier one on the same directed link — the classic
// reliable-FIFO-channel asynchrony model. A link's state is the latest
// delivery round it has been given.
type fifoScheduler struct {
	rng  *splitmix64
	last linkTable
}

func (*fifoScheduler) Name() string { return SchedFIFO }

func (s *fifoScheduler) reserveLinks(n int) { s.last.reserve(n) }

func (s *fifoScheduler) DeliverAt(sent int, m Message) int {
	at := sent + 1 + s.rng.intn(MaxSkew+1)
	last := s.last.at(m.From, m.To)
	if at < *last {
		at = *last
	}
	*last = at
	return at
}

// lifoScheduler is the adversarial last-writer-first reordering: on each
// directed link the delay cycles 3, 2, 1, so within every window of three
// sends the latest arrives first. The seed chooses each link's starting
// phase within the cycle (so per-trial seeds explore different alignments
// of the reorder windows against the protocol's send pattern), but never
// the cycle itself — within every aligned window the reversal property is
// preserved exactly. A link's state is one more than the sends it has
// carried plus its phase, so 0 marks a link not yet used.
type lifoScheduler struct {
	seed uint64
	seq  linkTable
}

func (*lifoScheduler) Name() string { return SchedLIFO }

func (s *lifoScheduler) reserveLinks(n int) { s.seq.reserve(n) }

// phase derives the seed-chosen starting offset of a link's delay cycle.
func (s *lifoScheduler) phase(from, to int) int {
	h := newSplitMix(s.seed ^
		(uint64(from)+1)*0xbf58476d1ce4e5b9 ^
		(uint64(to)+1)*0x94d049bb133111eb)
	return h.intn(MaxSkew)
}

func (s *lifoScheduler) DeliverAt(sent int, m Message) int {
	seq := s.seq.at(m.From, m.To)
	if *seq == 0 {
		*seq = s.phase(m.From, m.To) + 1
	}
	n := *seq - 1
	*seq++
	return sent + MaxSkew - n%MaxSkew // delays cycle 3, 2, 1, from the seeded phase
}

// partitionScheduler splits the players into two seed-chosen blocks and
// holds every cross-partition message back until a heal round, after which
// the network is synchronous again — the partition-then-heal schedule.
// Messages are delayed, never dropped, so eventual delivery holds.
type partitionScheduler struct {
	hash uint64
	heal int
}

func newPartitionScheduler(seed uint64) *partitionScheduler {
	rng := newSplitMix(seed)
	return &partitionScheduler{
		hash: rng.next(),
		heal: 2 + rng.intn(4), // heal in rounds 2..5
	}
}

func (*partitionScheduler) Name() string { return SchedPartition }

// side assigns node v to one of the two blocks by hashing it against the
// run's seed material.
func (s *partitionScheduler) side(v int) bool {
	h := newSplitMix(s.hash ^ (uint64(v)+1)*0xd1b54a32d192ed03)
	return h.next()&1 == 1
}

func (s *partitionScheduler) DeliverAt(sent int, m Message) int {
	if sent < s.heal && s.side(m.From) != s.side(m.To) {
		return s.heal + 1
	}
	return sent + 1
}

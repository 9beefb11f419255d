// Package network simulates a synchronous message-passing network of
// players connected by undirected authenticated channels — the execution
// substrate for every protocol in this repository.
//
// Semantics (the standard synchronous model used by the paper):
//
//   - Execution proceeds in rounds 1, 2, 3, ...
//   - A message sent in round k is delivered at the start of round k+1.
//     Init sends count as round-0 sends, delivered in round 1.
//   - Channels are authenticated: a delivered message carries the true
//     sender identity, and messages can only travel along edges of the
//     network graph. The engine silently drops sends along non-edges, so a
//     Byzantine process cannot forge either endpoint of a channel.
//   - Corrupted players are ordinary Process implementations with arbitrary
//     behavior; honesty is a property of the implementation, not the engine.
//
// Engines are named implementations of the Engine contract, resolved from a
// registry (EngineByName) exactly like protocols. The built-ins share one
// delivery substrate: the deterministic lockstep engine (the default) steps
// players in ID order in a single goroutine; the goroutine engine gives
// every player its own goroutine with a round barrier, exercising the
// natural Go embedding of a distributed node; the async engine relaxes
// "delivered at the start of round k+1" to a pluggable Scheduler that
// assigns each message its delivery round under an eventual-delivery clamp,
// simulating adversarial message timing while staying fully deterministic
// for a fixed seed. The wire engine (internal/wire) registers itself on
// import and runs every player as a real OS process speaking length-prefixed
// frames over TCP. For deterministic protocols lockstep, goroutine,
// async-under-SyncScheduler and wire produce identical transcripts, which
// property tests assert.
package network

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// Value is an element of the message space X: the payload the dealer wants
// to transmit. Values are opaque to the engine.
type Value string

// Payload is the content of one message. Implementations must be immutable
// after sending: engines deliver payloads by reference and may deliver one
// payload to several recipients.
type Payload interface {
	// BitSize returns the payload size in bits, for bit-complexity
	// accounting. It needs to be consistent, not exact.
	BitSize() int
	// Key returns a canonical string encoding of the payload: two payloads
	// are semantically identical iff their keys are equal. Used for
	// transcript comparison (indistinguishability arguments) and dedup.
	Key() string
}

// Message is one delivered message.
type Message struct {
	From    int
	To      int
	Payload Payload
}

// Key canonically encodes the full message (sender, receiver, payload).
func (m Message) Key() string {
	return fmt.Sprintf("%d>%d:%s", m.From, m.To, m.Payload.Key())
}

// Outbox lets a process send a message to a neighbor during Init or Round.
// Sends to non-neighbors are dropped by the engine.
type Outbox func(to int, p Payload)

// Process is one player's protocol state machine. Engines call Init once,
// then Round once per round until it returns false (the player halts) or
// the run ends. Implementations need no internal locking: engines
// serialize all calls to a single process.
type Process interface {
	// Init is called before round 1. Sends are delivered in round 1.
	Init(out Outbox)
	// Round is called with the messages delivered this round, sorted by
	// sender ID (ties broken by payload key). The inbox slice is only
	// valid for the duration of the call — engines reuse its backing
	// storage across rounds — so implementations must retain copies of
	// messages, never the slice itself. Returning false halts the player:
	// it neither sends nor receives afterwards.
	Round(round int, inbox []Message, out Outbox) bool
	// Decision returns the player's decided value, if it has decided.
	// Decisions are write-once: once decided, a process must keep
	// returning the same value.
	Decision() (Value, bool)
}

// Blueprint describes a run as pure data — instance spec text, registry
// names and node IDs only, no live Go values. It is what every front end
// (rmtd's /v1/run, rmtsim, the conformance battery) resolves into a run,
// through cliutil.ResolveRun, and what the wire engine ships to its
// children, which rebuild the full process map from it deterministically.
// Engines that run in-process ignore it. The JSON form is the wire frame's
// schema.
type Blueprint struct {
	// Instance is the cliutil instance-spec text ("# rmt instance v1"
	// format: graph, adversary structure, knowledge level, dealer,
	// receiver). Required by the wire engine; a front end that built its
	// instance from other text leaves it empty.
	Instance string `json:"instance"`
	// Protocol is the protocol registry name ("pka", "zcpa", ...). Required.
	Protocol string `json:"protocol"`
	// Value is the dealer's input value.
	Value string `json:"value"`
	// Corrupt lists the corrupted node IDs, overlaid with the named
	// byzantine Attack strategy ("" means the silent strategy).
	Corrupt []int  `json:"corrupt,omitempty"`
	Attack  string `json:"attack,omitempty"`
	// Forged is the attacker's preferred wrong value (ignored by
	// strategies that never inject values).
	Forged string `json:"forged,omitempty"`
	// Listen is the adversary's listening structure in cliutil
	// ParseStructure syntax ("1,2;3"); "" means no listening. Privacy-aware
	// protocols (smt) derive their share routing from it, so wire children
	// must rebuild with the same family the coordinator planned with.
	Listen string `json:"listen,omitempty"`
	// Seed keys deterministic share/pad generation for privacy-aware
	// protocols; wire children must use the coordinator's seed or their
	// shares would disagree.
	Seed int64 `json:"seed,omitempty"`
}

// ChurnEvent is one batch of topology edits taking effect at the start of
// Round, before that round's deliveries: edges are added, then removed, and
// any delivery-calendar message whose carrying edge no longer exists is
// recorded as a loss (the synchronous-model reading of a link failing with
// a message in flight). Events edit edges only — a node appearing mid-run
// would need a Process that does not exist, and the engine cannot invent
// one, so node churn is a property of the instance layer (instance.Delta),
// not of a running network.
type ChurnEvent struct {
	// Round is the round at whose start the edits apply (≥ 1).
	Round int
	// AddEdges lists edges to add, each between existing, distinct nodes.
	AddEdges [][2]int
	// RemoveEdges lists edges to remove; they must exist when the event
	// fires (validated against the cumulative edit sequence up front).
	RemoveEdges [][2]int
}

// Config describes one run.
type Config struct {
	// Graph is the communication topology. Required.
	Graph *graph.Graph
	// Processes maps every node of Graph to its protocol state machine.
	// Required, with exactly the graph's nodes as keys.
	Processes map[int]Process
	// MaxRounds bounds the execution; 0 means 2·|V|+2, enough for every
	// protocol in this repository (Z-CPA needs ≤ n rounds, RMT-PKA floods
	// paths of length ≤ n).
	MaxRounds int
	// Engine selects the execution engine (nil = Lockstep); see
	// EngineByName for resolving one from the registry.
	Engine Engine
	// Scheduler is the async engine's delivery policy (nil = SyncScheduler).
	// Ignored by the synchronous engines.
	Scheduler Scheduler
	// MsgAdversary is the message-suppression policy (nil = none): it may
	// remove up to its budget d copies of each broadcast, independently of
	// node corruption (see MessageAdversary). Suppressed copies count as
	// sent and are recorded as Lose events, so metrics still reconcile.
	// Honored by every in-process engine (suppression is a channel fault,
	// not a timing policy); the wire engine rejects it.
	MsgAdversary MessageAdversary
	// Churn schedules mid-run topology edits, in non-decreasing round
	// order (see ChurnEvent). Supported by the in-process engines
	// (lockstep, goroutine, async); the wire engine rejects it — children
	// hold a private copy of the graph fixed at handshake.
	Churn []ChurnEvent
	// Blueprint is the pure-data run recipe engines running players in
	// other processes need (see Blueprint); in-process engines ignore it.
	Blueprint *Blueprint
	// RecordTranscript enables full message recording (memory-heavy).
	RecordTranscript bool
	// StopEarly, if non-nil, is evaluated after every round with the
	// current decisions; returning true ends the run.
	StopEarly func(decisions map[int]Value) bool
	// Tracers are additional run observers, invoked serially from the
	// coordinating goroutine (see Tracer). The engine's metrics and the
	// optional transcript recorder are installed automatically.
	Tracers []Tracer
	// Context, when non-nil, is polled once per round; once it is done the
	// run stops and returns its error, as does a run that ends with it
	// done: players may poll it as well and give up mid-round work. A
	// server passes its request deadline here so that one long run cannot
	// hold its request past it.
	Context context.Context
}

// engine returns the effective engine (Lockstep when unset).
func (c *Config) engine() Engine {
	if c.Engine == nil {
		return Lockstep
	}
	return c.Engine
}

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("network: nil graph")
	}
	n := c.Graph.NumNodes()
	if len(c.Processes) != n {
		return fmt.Errorf("network: %d processes for %d nodes", len(c.Processes), n)
	}
	ok := true
	c.Graph.Nodes().ForEach(func(v int) bool {
		if c.Processes[v] == nil {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return fmt.Errorf("network: missing or nil process for some node")
	}
	return c.validateChurn()
}

// validateChurn replays the churn schedule against a copy of the graph so
// every edit is known to be legal before the run starts: a mid-run
// validation failure would leave the accounting half-applied.
func (c *Config) validateChurn() error {
	if len(c.Churn) == 0 {
		return nil
	}
	g := c.Graph.Clone()
	last := 1
	for i, ev := range c.Churn {
		if ev.Round < 1 {
			return fmt.Errorf("network: churn event %d at round %d (rounds start at 1)", i, ev.Round)
		}
		if ev.Round < last {
			return fmt.Errorf("network: churn event %d at round %d after an event at round %d (events must be in round order)", i, ev.Round, last)
		}
		last = ev.Round
		for _, e := range ev.AddEdges {
			u, v := e[0], e[1]
			switch {
			case u == v:
				return fmt.Errorf("network: churn event %d adds self-loop %d-%d", i, u, v)
			case !g.HasNode(u) || !g.HasNode(v):
				return fmt.Errorf("network: churn event %d adds edge %d-%d with an unknown endpoint (node churn is not supported)", i, u, v)
			case g.HasEdge(u, v):
				return fmt.Errorf("network: churn event %d adds existing edge %d-%d", i, u, v)
			}
			g.AddEdge(u, v)
		}
		for _, e := range ev.RemoveEdges {
			if !g.HasEdge(e[0], e[1]) {
				return fmt.Errorf("network: churn event %d removes absent edge %d-%d", i, e[0], e[1])
			}
			g.RemoveEdge(e[0], e[1])
		}
	}
	return nil
}

func (c *Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 2*c.Graph.NumNodes() + 2
}

// Result summarizes a run.
type Result struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Decisions maps each node that decided to its value.
	Decisions map[int]Value
	// DecidedAtRound maps each decided node to the round in which the
	// engine first observed its decision (0 = during Init).
	DecidedAtRound map[int]int
	// Metrics holds message/bit complexity counters.
	Metrics Metrics
	// Transcript is non-nil iff Config.RecordTranscript was set.
	Transcript *Transcript
}

// DecisionOf returns node v's decision.
func (r *Result) DecisionOf(v int) (Value, bool) {
	val, ok := r.Decisions[v]
	return val, ok
}

// UnsafeDeciders is the safety oracle every protocol is held to (Theorem 4
// for RMT): it returns, in ascending order, each node outside corrupt that
// decided a value other than xD. Deciding nothing is always safe — safety,
// not liveness, is on trial.
func (r *Result) UnsafeDeciders(corrupt nodeset.Set, xD Value) []int {
	var out []int
	for v, got := range r.Decisions {
		if got != xD && !corrupt.Contains(v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// Disagreement compares two recorded runs of one deterministic
// configuration — on different engines, or replayed — and describes the
// first difference: the transcripts, then every player's decision. It
// returns "" when the runs agree. Both runs must record a transcript.
func Disagreement(ref, res *Result) string {
	if res.Transcript.Key() != ref.Transcript.Key() {
		return "transcripts differ"
	}
	if !maps.Equal(ref.Decisions, res.Decisions) {
		return fmt.Sprintf("decisions differ: %v vs %v", res.Decisions, ref.Decisions)
	}
	return ""
}

// Metrics counts the complexity measures the paper discusses: round,
// message and bit complexity.
type Metrics struct {
	MessagesSent      int   // accepted sends (along edges)
	MessagesDelivered int   // messages handed to a live player's inbox
	MessagesDropped   int   // sends along non-edges or to self (Byzantine noise)
	MessagesDelayed   int   // sends the scheduler held past the synchronous round (async engine)
	MessagesLost      int   // accepted sends never delivered: recipient halted, or the run ended first
	BitsSent          int   // Σ payload BitSize over accepted sends
	MessagesPerRound  []int // accepted sends indexed by round (0 = Init)
	MaxInboxPerPlayer int   // largest single-round inbox observed
}

// Reconcile checks the conservation law every run obeys: each accepted
// send is eventually delivered to a live player or lost (recipient halted,
// or the run ended with the message still in the delivery calendar).
// Rejected sends (Drop events) are counted separately and never enter
// MessagesSent. It returns an error describing the first violated identity.
func (m Metrics) Reconcile() error {
	if m.MessagesSent != m.MessagesDelivered+m.MessagesLost {
		return fmt.Errorf("network: sent %d != delivered %d + lost %d",
			m.MessagesSent, m.MessagesDelivered, m.MessagesLost)
	}
	perRound := 0
	for _, n := range m.MessagesPerRound {
		perRound += n
	}
	if perRound != m.MessagesSent {
		return fmt.Errorf("network: per-round sends %d != sent %d", perRound, m.MessagesSent)
	}
	return nil
}

// Run executes the configured protocol on the configured engine (Lockstep
// when unset) and returns the result.
func Run(cfg Config) (*Result, error) {
	return cfg.engine().Run(cfg)
}

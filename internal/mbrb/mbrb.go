// Package mbrb implements a signature-free Byzantine Reliable Broadcast
// protocol for the message-adversary model (MBRB): besides up to t Byzantine
// players, a message adversary may suppress up to d copies of every
// broadcast (network.MessageAdversary). The protocol is the Bracha echo/ready
// scheme with quorums re-derived for the (n, t, d) parameter space, where the
// solvability bound is n > 3t + 2d (Albouy, Frey, Raynal, Taïani; see
// PAPERS.md): with n ≤ 3t + 2d no MBRB protocol exists, and above the bound
// this protocol guarantees at least ℓ = n − t − d honest deliveries.
//
// Protocol (code for player v on a complete network, dealer D, value x_D):
//
//  1. D broadcasts INIT(x_D); the INIT doubles as D's echo.
//  2. Upon INIT(x) from D, or upon t+1 echoes for x: if v has not echoed,
//     broadcast ECHO(x) and count v among x's echoers.
//  3. Upon qE = ⌊(n+t)/2⌋+1 echoes for x, or upon t+1 readys for x: if v
//     has not readied, broadcast READY(x) and count v among x's readiers.
//  4. Upon qD = 2t+d+1 readys for x: deliver x and halt.
//
// Every quorum counts distinct senders, the player itself included once it
// has sent the phase. Safety needs no suppression bound: t < t+1 forged
// readys can never amplify, and two echo quorums for different values would
// need 2·qE − n > t common senders. The d in qD buys delivery certainty
// under suppression: 2t+d+1 readys leave t+d+1 correct readiers, so every
// correct player eventually sees t+1 of them even if the adversary mutes d
// and the Byzantine players lie — the classic totality argument shifted by
// d. Liveness consumes the budget: with d copies of each broadcast
// suppressed, only the n − t − d correct players outside a worst-case
// eclipse are guaranteed to reach qE and qD (internal/feasibility's boundary
// battery pins both sides of the bound operationally).
package mbrb

import (
	"fmt"

	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Phase tags an MBRB message with its protocol step.
type Phase string

// The three MBRB message phases.
const (
	PhaseInit  Phase = "init"
	PhaseEcho  Phase = "echo"
	PhaseReady Phase = "ready"
)

// Msg is the one MBRB payload type: a phase-tagged value.
type Msg struct {
	Phase Phase
	X     network.Value

	// key memoizes Key. Players broadcast sealed payloads (see payloads),
	// whose key every recipient's inbox sort then reads; unsealed literals
	// (forged payloads, decoded wire frames) fall back to rendering per
	// call.
	key string
}

// BitSize implements network.Payload: the value plus a two-bit phase tag.
func (m Msg) BitSize() int { return 8*len(m.X) + 2 }

// Key implements network.Payload.
func (m Msg) Key() string {
	if m.key != "" {
		return m.key
	}
	return m.render()
}

func (m Msg) render() string { return "mbrb:" + string(m.Phase) + ":" + string(m.X) }

// payloads is an instance's sealed broadcast payloads, keyed by the
// unsealed literal: one per (phase, value) its runs have broadcast, boxed
// once with its key rendered and shared by every run, so a broadcast
// allocates nothing once its payload exists. maxPayloads caps it against
// runs with ever new values.
type payloads = protocol.Cache[Msg, network.Payload]

const maxPayloads = 64

type payloadsKey struct{}

func payloadsOf(in *instance.Instance) *payloads {
	return in.Derived(payloadsKey{}, func() any { return &payloads{Max: maxPayloads} }).(*payloads)
}

// Quorums are the three thresholds of an (n, t, d) MBRB run.
type Quorums struct {
	// Echo is qE = ⌊(n+t)/2⌋+1, the echo count that certifies a value: two
	// such quorums for different values would share more than t senders.
	Echo int
	// Amp is t+1, the count that proves at least one correct sender and so
	// lets echoes and readys amplify without a dealer INIT.
	Amp int
	// Deliver is qD = 2t+d+1, the ready count that makes delivery
	// irrevocable despite t Byzantine readiers and d suppressed copies.
	Deliver int
}

// NewQuorums derives the thresholds for an n-player run with at most t
// Byzantine players and a per-broadcast suppression budget of d.
func NewQuorums(n, t, d int) Quorums {
	return Quorums{Echo: (n+t)/2 + 1, Amp: t + 1, Deliver: 2*t + d + 1}
}

// Threshold extracts the t the instance's adversary structure corresponds
// to: the size of its largest corruption set. MBRB's quorum arithmetic is
// threshold-based, so general structures are conservatively rounded up.
func Threshold(in *instance.Instance) int {
	t := 0
	for _, m := range in.MaximalCorruptions() {
		if s := m.Len(); s > t {
			t = s
		}
	}
	return t
}

// Player is one MBRB player; the dealer is a player whose Init broadcasts
// INIT(x_D) and self-counts it as an echo.
type Player struct {
	id        int
	dealer    int
	value     network.Value // dealer's value; empty for non-dealers
	neighbors nodeset.Set
	q         Quorums
	payloads  *payloads

	echoes    protocol.Tally
	readys    protocol.Tally
	echoed    bool
	readied   bool
	delivered bool
	x         network.Value
}

// NewPlayer builds the process for node id of the instance with the given
// quorums; xD is non-empty exactly at the dealer.
func NewPlayer(in *instance.Instance, id int, xD network.Value, q Quorums) *Player {
	p := newPlayer(in, id, xD, q, payloadsOf(in))
	return &p
}

func newPlayer(in *instance.Instance, id int, xD network.Value, q Quorums, ps *payloads) Player {
	return Player{id: id, dealer: in.Dealer, value: xD, neighbors: in.G.Neighbors(id), q: q, payloads: ps}
}

// Init implements network.Process: the dealer broadcasts INIT, which counts
// as its echo; everyone else waits.
func (p *Player) Init(out network.Outbox) {
	if p.id != p.dealer {
		return
	}
	p.echoed = true
	p.echoes.Add(p.value, p.id)
	p.broadcast(out, Msg{Phase: PhaseInit, X: p.value})
}

// Round implements network.Process.
func (p *Player) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	if p.delivered {
		return false
	}
	for _, m := range inbox {
		msg, ok := m.Payload.(Msg)
		if !ok {
			continue // erroneous message; discard
		}
		switch msg.Phase {
		case PhaseInit:
			if m.From != p.dealer {
				continue // only the dealer's INIT carries weight
			}
			// The dealer's INIT is its echo, and prompts ours.
			p.echoes.Add(msg.X, m.From)
			p.echo(out, msg.X)
		case PhaseEcho:
			p.echoes.Add(msg.X, m.From)
		case PhaseReady:
			p.readys.Add(msg.X, m.From)
		}
	}
	// Quorum checks run after the whole inbox is folded in, in sorted value
	// order, so every engine reaches identical verdicts. Self-counts below
	// only add senders to values already tallied, so indices stay put.
	for i := 0; i < p.echoes.Len(); i++ {
		if p.echoes.Count(i) >= p.q.Amp {
			p.echo(out, p.echoes.Value(i)) // self-count may complete the echo quorum below
		}
		if p.echoes.Count(i) >= p.q.Echo {
			p.ready(out, p.echoes.Value(i))
		}
	}
	for i := 0; i < p.readys.Len(); i++ {
		if p.readys.Count(i) >= p.q.Amp {
			p.ready(out, p.readys.Value(i))
		}
		if p.readys.Count(i) >= p.q.Deliver {
			p.delivered, p.x = true, p.readys.Value(i)
			return false // deliver and halt
		}
	}
	return true
}

// Decision implements network.Process.
func (p *Player) Decision() (network.Value, bool) { return p.x, p.delivered }

func (p *Player) echo(out network.Outbox, x network.Value) {
	if p.echoed {
		return
	}
	p.echoed = true
	p.echoes.Add(x, p.id)
	p.broadcast(out, Msg{Phase: PhaseEcho, X: x})
}

func (p *Player) ready(out network.Outbox, x network.Value) {
	if p.readied {
		return
	}
	p.readied = true
	p.readys.Add(x, p.id)
	p.broadcast(out, Msg{Phase: PhaseReady, X: x})
}

// broadcast sends m's sealed payload to every neighbor: every recipient
// shares the one immutable payload.
func (p *Player) broadcast(out network.Outbox, m Msg) {
	payload := p.payloads.Get(m, func() network.Payload {
		sealed := m
		sealed.key = m.render()
		return sealed
	})
	p.neighbors.ForEach(func(u int) bool {
		out(u, payload)
		return true
	})
}

// NewProcesses assembles the MBRB process map for a run with suppression
// budget d: every node runs a player with (n, t, d) quorums, with the given
// corrupted overrides (the dealer and receiver cannot be corrupted).
func NewProcesses(in *instance.Instance, xD network.Value, corrupt map[int]network.Process, d int) map[int]network.Process {
	q := NewQuorums(in.N(), Threshold(in), d)
	ps := payloadsOf(in)
	slab := make([]Player, 0, in.N()) // one allocation for the run's players
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), corrupt, func(v int) network.Process {
		val := network.Value("")
		if v == in.Dealer {
			val = xD
		}
		slab = append(slab, newPlayer(in, v, val, q, ps))
		return &slab[len(slab)-1]
	})
}

// Proto is MBRB's registry entry; the package registers it under
// protocol.MBRB at init.
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.MBRB }

// Caps implements protocol.Protocol: MBRB is a broadcast (every honest
// player must decide) whose quorums count processes, not paths, so it runs
// on complete networks.
func (Proto) Caps() protocol.Caps { return protocol.Caps{AllDecide: true, CompleteGraph: true} }

// Assemble implements protocol.Protocol. The network must be complete: on a
// sparser graph the process-counting quorums are meaningless.
//
// Proto deliberately does not implement protocol.Feasibility: the tight
// n > 3t + 2d characterization holds for complete networks only, so the
// registry-level Solvable hook (which generic harnesses evaluate on
// arbitrary instances) would misreport. The predicate lives in
// internal/feasibility, guarded by the completeness check.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	if !Complete(in) {
		return nil, protocol.Capsf(protocol.MBRB, "network is not complete (n=%d); MBRB quorums count processes, not paths", in.N())
	}
	if opts.MABudget < 0 {
		return nil, fmt.Errorf("mbrb: negative suppression budget %d", opts.MABudget)
	}
	return NewProcesses(in, xD, opts.Corrupt, opts.MABudget), nil
}

// Complete reports whether the instance's network is a complete graph —
// MBRB's operating assumption.
func Complete(in *instance.Instance) bool {
	n := in.N()
	complete := true
	in.G.Nodes().ForEach(func(v int) bool {
		if in.G.Neighbors(v).Len() != n-1 {
			complete = false
			return false
		}
		return true
	})
	return complete
}

func init() { protocol.Register(Proto{}) }

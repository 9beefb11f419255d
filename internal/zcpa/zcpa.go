// Package zcpa implements the 𝒵-CPA protocol (Certified Propagation
// Algorithm for general adversary structures) adapted for Reliable Message
// Transmission in ad hoc networks, as in Section 4 of the paper, together
// with the RMT 𝒵-pp cut characterization (Definition 7, Theorems 7–8).
//
// Protocol (code for player v, dealer D, receiver R):
//
//  1. The dealer sends its value x_D to all neighbors and terminates.
//  2. If v ∈ N(D): upon reception of x_D from the dealer, decide x_D.
//  3. If v ∉ N(D): upon receiving the same value x from all neighbors in a
//     set N ⊆ N(v) with N ∉ Z_v, decide x.
//  4. Upon deciding: R outputs and terminates; others relay the decided
//     value to all neighbors once and terminate.
//
// The membership check "N ∉ Z_v" is a protocol-scheme subroutine
// (Definition 8): it is abstracted behind the Oracle interface so that the
// Section 5 self-reduction can plug in a simulated-Π implementation
// (internal/selfred) while normal runs use the direct antichain check.
package zcpa

import (
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Oracle answers the 𝒵-CPA membership check: whether a set of same-value
// reporting neighbors of v is an admissible corruption set in Z_v. Player v
// decides on x exactly when its set of x-reporters is NOT a member. It is
// the protocol runtime's MembershipOracle — the Definition 8 hook.
type Oracle = protocol.MembershipOracle

// DirectOracle answers membership checks straight from the instance's
// memoized local structures — the "explicitly given structure" regime in
// which the paper notes 𝒵-CPA is trivially fully polynomial.
type DirectOracle struct {
	In *instance.Instance
}

// Member implements Oracle.
func (o DirectOracle) Member(v int, reporters nodeset.Set) bool {
	return o.In.LocalStructure(v).Contains(reporters)
}

// Decider generalizes the decision subroutine of 𝒵-CPA: given the partition
// of a player's same-value reporter classes, it returns the certified value,
// if any. This is the protocol-scheme hook of Section 5 — the Theorem 9
// construction (internal/selfred) implements it by simulating runs of a
// basic-instance protocol Π instead of checking membership directly.
type Decider = protocol.Decider

// WrapOracle adapts a membership Oracle into a Decider implementing the
// textbook rule: certify x iff the x-reporter class is not in Z_v. Values
// are scanned in the tally's sorted order for determinism.
func WrapOracle(o Oracle) Decider { return oracleDecider{o: o} }

type oracleDecider struct{ o Oracle }

func (d oracleDecider) Decide(v int, classes *protocol.Tally) (network.Value, bool) {
	for i := 0; i < classes.Len(); i++ {
		if !d.o.Member(v, classes.Senders(i)) {
			return classes.Value(i), true
		}
	}
	return "", false
}

// ValuePayload is the single-value message exchanged by 𝒵-CPA (the paper's
// type: each player transmits one value x ∈ X once).
type ValuePayload struct {
	X network.Value
}

// BitSize implements network.Payload.
func (p ValuePayload) BitSize() int { return 8 * len(p.X) }

// Key implements network.Payload.
func (p ValuePayload) Key() string { return "v:" + string(p.X) }

// Dealer is the dealer's process: send x_D to all neighbors, terminate.
type Dealer struct {
	Value     network.Value
	neighbors nodeset.Set
}

// Init implements network.Process.
func (d *Dealer) Init(out network.Outbox) { send(out, d.neighbors, d.Value) }

// send sends x to every node of to, boxing the payload once: every
// recipient shares the one immutable payload.
func send(out network.Outbox, to nodeset.Set, x network.Value) {
	var payload network.Payload = ValuePayload{X: x}
	to.ForEach(func(u int) bool {
		out(u, payload)
		return true
	})
}

// Round implements network.Process: the dealer terminates immediately.
func (d *Dealer) Round(int, []network.Message, network.Outbox) bool { return false }

// Decision implements network.Process: the dealer trivially knows x_D.
func (d *Dealer) Decision() (network.Value, bool) { return d.Value, true }

// Player is an honest non-dealer player running 𝒵-CPA.
type Player struct {
	id         int
	dealer     int
	isReceiver bool
	neighbors  nodeset.Set
	decider    Decider

	reporters protocol.Tally
	decided   bool
	value     network.Value
}

// NewPlayers assembles a 𝒵-CPA process map on g: the dealer sending xD,
// a relay-and-decide Player at every other node, and the corrupt overlay on
// every node outside protected. The receiver, when it is a node of g,
// outputs its decision without relaying; passing -1 makes every player
// relay, which is 𝒵-CPA in its original broadcast role (internal/broadcast).
// The run's players are carved from one slab.
func NewPlayers(g *graph.Graph, dealer, receiver int, protected nodeset.Set, xD network.Value, corrupt map[int]network.Process, decider Decider) map[int]network.Process {
	slab := make([]Player, 0, g.NumNodes())
	return protocol.Build(g, protected, corrupt, func(v int) network.Process {
		if v == dealer {
			return &Dealer{Value: xD, neighbors: g.Neighbors(v)}
		}
		slab = append(slab, Player{id: v, dealer: dealer, isReceiver: v == receiver, neighbors: g.Neighbors(v), decider: decider})
		return &slab[len(slab)-1]
	})
}

// Init implements network.Process.
func (p *Player) Init(network.Outbox) {}

// Round implements network.Process.
func (p *Player) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	if p.decided {
		return false
	}
	for _, m := range inbox {
		vp, ok := m.Payload.(ValuePayload)
		if !ok {
			continue // erroneous message (recognized in poly time); discard
		}
		if m.From == p.dealer {
			// Dealer propagation rule: the dealer is honest by assumption.
			p.decide(vp.X, out)
			return false
		}
		p.reporters.Add(vp.X, m.From)
	}
	// Certification rule: decide on x iff the x-reporters form a set
	// outside Z_v. Checking the full reporter set suffices: if it is a
	// member, monotonicity puts every subset inside Z_v too. (At most one
	// value can ever certify for an honest player, by the safety argument
	// of Theorem 7.)
	if p.reporters.Len() > 0 {
		if x, ok := p.decider.Decide(p.id, &p.reporters); ok {
			p.decide(x, out)
			return false
		}
	}
	return true
}

func (p *Player) decide(x network.Value, out network.Outbox) {
	p.decided = true
	p.value = x
	if p.isReceiver {
		return // R outputs its decision and terminates without relaying
	}
	send(out, p.neighbors, x)
}

// Decision implements network.Process.
func (p *Player) Decision() (network.Value, bool) { return p.value, p.decided }

// NewProcessesWithDecider assembles the process map for a 𝒵-CPA run: the
// dealer, honest players deciding through decider, and the supplied
// corrupted processes (which take precedence for their nodes; the dealer
// and receiver cannot be corrupted).
func NewProcessesWithDecider(in *instance.Instance, xD network.Value, corrupt map[int]network.Process, decider Decider) map[int]network.Process {
	return NewPlayers(in.G, in.Dealer, in.Receiver, nodeset.Of(in.Dealer, in.Receiver), xD, corrupt, decider)
}

// ResolveDecider picks the decision subroutine the options call for:
// opts.Decider when set, else the textbook rule over the DirectOracle.
func ResolveDecider(in *instance.Instance, opts protocol.Options) Decider {
	if opts.Decider != nil {
		return opts.Decider
	}
	return WrapOracle(DirectOracle{In: in})
}

// Proto is 𝒵-CPA's registry entry; the package registers it under
// protocol.ZCPA at init.
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.ZCPA }

// Caps implements protocol.Protocol: 𝒵-CPA is the ad hoc protocol and only
// the receiver decides.
func (Proto) Caps() protocol.Caps { return protocol.Caps{} }

// Assemble implements protocol.Protocol.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	return NewProcessesWithDecider(in, xD, opts.Corrupt, ResolveDecider(in, opts)), nil
}

// Solvable implements protocol.Feasibility: 𝒵-CPA is tight against the RMT
// 𝒵-pp cut condition (Theorems 7 & 8).
func (Proto) Solvable(in *instance.Instance) bool { return Solvable(in) }

func init() { protocol.Register(Proto{}) }

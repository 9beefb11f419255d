package core

import (
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Dealer is RMT-PKA's dealer process: it sends (x_D, {D}) and
// ((D, γ(D), Z_D), {D}) to all neighbors and terminates. Its two Init
// payloads are prebuilt with sealed keys, once per instance (pkaShared).
type Dealer struct {
	Value     network.Value
	neighbors nodeset.Set
	valueMsg  network.Payload
	infoMsg   network.Payload
}

func newDealer(in *instance.Instance, xD network.Value, sh *pkaShared) *Dealer {
	d := in.Dealer
	return &Dealer{
		Value:     xD,
		neighbors: in.G.Neighbors(d),
		valueMsg:  sh.dealerVals.Get(xD, func() network.Payload { return NewValueMsg(xD, graph.Path{d}) }),
		infoMsg:   sh.dealerInfoMsg,
	}
}

// Init implements network.Process.
func (d *Dealer) Init(out network.Outbox) {
	d.neighbors.ForEach(func(u int) bool {
		out(u, d.valueMsg)
		out(u, d.infoMsg)
		return true
	})
}

// Round implements network.Process: the dealer terminates after Init.
func (d *Dealer) Round(int, []network.Message, network.Outbox) bool { return false }

// Decision implements network.Process.
func (d *Dealer) Decision() (network.Value, bool) { return d.Value, true }

// Relay is an honest non-dealer, non-receiver player: it announces its own
// knowledge once and relays every admissible message with its trail
// extended, exactly as in Protocol 1. With a non-zero horizon it
// additionally drops trails that could no longer reach the receiver within
// the horizon (the Horizon-PKA ablation, experiment E10).
//
// A relay holds no per-run state — its only fields are the instance-derived
// identity and an optional locked rebuild cache — so pkaShared hands one
// relay instance to every run on the instance, including concurrent ones.
type Relay struct {
	id        int
	neighbors nodeset.Set
	horizon   int             // max D–R path length in nodes; 0 = unlimited
	initMsg   network.Payload // prebuilt Init announcement
	// cache holds rebuilt payloads by incoming payload key (nil for
	// NewRelayAt's relays).
	cache *protocol.Cache[string, network.Payload]
}

// NewRelayAt builds a relay from explicit parameters, for relays with no
// RMT instance behind them (e.g. Byzantine topology discovery). It has no
// rebuild cache; NewProcesses hands out the instance's shared relays.
func NewRelayAt(id int, neighbors nodeset.Set, info NodeInfo) *Relay {
	return &Relay{
		id:        id,
		neighbors: neighbors,
		initMsg:   NewInfoMsg(info.Sealed(), graph.Path{id}),
	}
}

// Init implements network.Process.
func (r *Relay) Init(out network.Outbox) {
	r.broadcast(out, r.initMsg)
}

// Round implements network.Process.
func (r *Relay) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		// Protocol 1's admission check; erroneous messages are discarded.
		trail, ok := trailOf(m.Payload)
		if !ok || !trail.Admissible(r.id, m.From) {
			continue
		}
		if r.horizon > 0 && len(trail)+1 > r.horizon-1 {
			continue // the extended trail plus the receiver would exceed the horizon
		}
		var np network.Payload
		if r.cache != nil {
			// The rebuilt message is a pure function of the incoming
			// payload (whose key is canonical per the Payload contract) and
			// this relay's identity, so the cache replays the exact payload
			// a rebuild would construct.
			np = r.cache.Get(m.Payload.Key(), func() network.Payload { return extended(m.Payload, r.id) })
		} else {
			np = extended(m.Payload, r.id)
		}
		r.broadcast(out, np)
	}
	return true
}

func (r *Relay) broadcast(out network.Outbox, p network.Payload) {
	r.neighbors.ForEach(func(u int) bool {
		out(u, p)
		return true
	})
}

// Decision implements network.Process: relays do not decide in RMT.
func (r *Relay) Decision() (network.Value, bool) { return "", false }

// NewProcesses assembles the full process map for an RMT-PKA run, replacing
// the nodes of corrupt with the supplied Byzantine processes (the dealer
// and receiver cannot be corrupted). The honest processes draw on the
// instance's warm store (pkaShared): sealed claims, prebuilt payloads,
// shared relays, and the receiver's interned candidate records all persist
// across runs.
func NewProcesses(in *instance.Instance, xD network.Value, corrupt map[int]network.Process, opts protocol.Options) map[int]network.Process {
	sh := sharedOf(in)
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), corrupt, func(v int) network.Process {
		switch v {
		case in.Dealer:
			return newDealer(in, xD, sh)
		case in.Receiver:
			return newReceiver(in, sh, opts.Horizon)
		default:
			return sh.relay(in, v, opts.Horizon)
		}
	})
}

// Proto is RMT-PKA's registry entry; the package registers it under
// protocol.PKA at init.
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.PKA }

// Caps implements protocol.Protocol: RMT-PKA works at any knowledge level
// and only the receiver decides.
func (Proto) Caps() protocol.Caps { return protocol.Caps{} }

// Assemble implements protocol.Protocol.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	return NewProcesses(in, xD, opts.Corrupt, opts), nil
}

// Solvable implements protocol.Feasibility: RMT-PKA is tight against the
// RMT-cut condition (Theorems 3 & 5).
func (Proto) Solvable(in *instance.Instance) bool { return Solvable(in) }

func init() { protocol.Register(Proto{}) }

package broadcast

import (
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// Proto is 𝒵-CPA-as-broadcast's registry entry: the broadcast protocol run
// on an RMT instance (G, 𝒵, γ, D, R), where every player — the designated
// receiver included — relays its decided value once. Registered under
// protocol.Broadcast at init.
//
// The RMT instance's local structures Z_v coincide with the broadcast
// instance's for the same view function, so the adapter assembles players
// directly from the RMT instance; only the corruption protection differs
// (the RMT machinery additionally protects the receiver).
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.Broadcast }

// Caps implements protocol.Protocol: every honest player must decide, so
// the runner must not stop early on the receiver.
func (Proto) Caps() protocol.Caps { return protocol.Caps{AllDecide: true} }

// Assemble implements protocol.Protocol.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	return zcpa.NewPlayers(in.G, in.Dealer, -1, nodeset.Of(in.Dealer, in.Receiver), xD, opts.Corrupt, zcpa.ResolveDecider(in, opts)), nil
}

// Solvable implements protocol.Feasibility for the designated receiver's
// decision: until the receiver decides, a broadcast run is observationally
// identical to the 𝒵-CPA run on the same instance (the receiver only
// relays after deciding, and no other player behaves differently), so the
// receiver decides under broadcast exactly when it does under 𝒵-CPA —
// the RMT 𝒵-pp cut condition. Deciding at every honest player is the
// stronger Definition-10 condition checked by the package's native
// Solvable on broadcast.Instance.
func (Proto) Solvable(in *instance.Instance) bool { return zcpa.Solvable(in) }

func init() { protocol.Register(Proto{}) }

package core

import (
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// Forger is a Byzantine RMT-PKA player with full control over its claims:
// it can inject fabricated messages, transform the type-1 values it relays,
// and send different claims to different neighbors. The engine's
// authenticated channels still apply — it can only talk to real neighbors —
// so every forged trail necessarily ends at the forger, exactly the
// capability Theorem 4's safety proof grants the adversary. It backs the
// legacy zoo below and byzantine's equivocator and view-liar strategies.
type Forger struct {
	ID        int
	Neighbors nodeset.Set
	// InitAll is sent to every neighbor at Init.
	InitAll []network.Payload
	// InitPer adds per-neighbor payloads at Init (split-brain claims).
	InitPer map[int][]network.Payload
	// FlipValue, if non-nil, replaces the value of every relayed type-1
	// message, per destination (equivocation).
	FlipValue func(x network.Value, to int) network.Value
}

// Init implements network.Process.
func (f *Forger) Init(out network.Outbox) {
	f.Neighbors.ForEach(func(u int) bool {
		for _, p := range f.InitAll {
			out(u, p)
		}
		for _, p := range f.InitPer[u] {
			out(u, p)
		}
		return true
	})
}

// Round implements network.Process: the forger relays through Relayed, the
// honest relay step (so its presence is plausible), but may rewrite type-1
// values.
func (f *Forger) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		payload, ok := Relayed(f.ID, m)
		if !ok {
			continue
		}
		vm, flip := payload.(ValueMsg)
		flip = flip && f.FlipValue != nil
		f.Neighbors.ForEach(func(u int) bool {
			if flip {
				out(u, ValueMsg{X: f.FlipValue(vm.X, u), P: vm.P})
			} else {
				out(u, payload)
			}
			return true
		})
	}
	return true
}

// Decision implements network.Process.
func (*Forger) Decision() (network.Value, bool) { return "", false }

// NewValueFlipper corrupts node c so that it relays every type-1 message
// with the forged value substituted, and announces its own info honestly —
// the classic message-alteration attack.
func NewValueFlipper(in *instance.Instance, c int, forged network.Value) *Forger {
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll:   []network.Payload{InfoMsg{Info: TrueInfo(in, c), P: graph.Path{c}}},
		FlipValue: func(network.Value, int) network.Value { return forged },
	}
}

// NewPathForger corrupts node c to claim a direct channel to the dealer
// that never existed: it fabricates a view γ'(c) containing the edge c–D,
// reports an understated local structure, and injects the type-1 message
// (forged, {D, c}) as if the dealer had sent the forged value along it.
// This is the "reporting fictitious topology and false local knowledge"
// adversary of Theorem 4.
func NewPathForger(in *instance.Instance, c int, forged network.Value) *Forger {
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(c, in.Dealer)
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll: []network.Payload{
			InfoMsg{Info: UnderstatedInfo(c, fakeView), P: graph.Path{c}},
			ValueMsg{X: forged, P: graph.Path{in.Dealer, c}},
		},
	}
}

// NewGhostForger corrupts node c to invent a fictitious node (ghost) that
// claims to connect the dealer to c, complete with a fabricated view and
// local structure for the ghost and a forged value that "traveled" through
// it. The ghost's ID must not collide with a real node.
func NewGhostForger(in *instance.Instance, c, ghost int, forged network.Value) *Forger {
	ghostView := graph.New()
	ghostView.AddEdge(in.Dealer, ghost)
	ghostView.AddEdge(ghost, c)
	// c's own fake view includes the ghost edge so G_M contains the path.
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(ghost, c)
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll: []network.Payload{
			InfoMsg{Info: UnderstatedInfo(c, fakeView), P: graph.Path{c}},
			InfoMsg{Info: UnderstatedInfo(ghost, ghostView), P: graph.Path{ghost, c}},
			ValueMsg{X: forged, P: graph.Path{in.Dealer, ghost, c}},
		},
	}
}

// NewSplitBrain corrupts node c to present two different versions of its
// own knowledge to two halves of its neighborhood, violating Definition 4's
// consistency requirement in a way only the receiver's valid-set grouping
// can untangle.
func NewSplitBrain(in *instance.Instance, c int, forged network.Value) *Forger {
	honest := TrueInfo(in, c)
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(c, in.Dealer)
	lying := UnderstatedInfo(c, fakeView)
	per := make(map[int][]network.Payload)
	i := 0
	in.G.Neighbors(c).ForEach(func(u int) bool {
		if i%2 == 0 {
			per[u] = []network.Payload{InfoMsg{Info: honest, P: graph.Path{c}}}
		} else {
			per[u] = []network.Payload{
				InfoMsg{Info: lying, P: graph.Path{c}},
				ValueMsg{X: forged, P: graph.Path{in.Dealer, c}},
			}
		}
		i++
		return true
	})
	return &Forger{ID: c, Neighbors: in.G.Neighbors(c), InitPer: per}
}

// NewStructureLiar corrupts node c to relay faithfully but report a wildly
// false local adversary structure: it claims every subset of its view may
// be corrupted, maximizing the receiver's perceived uncertainty (a
// denial-of-decision attempt).
func NewStructureLiar(in *instance.Instance, c int) *Forger {
	return &Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll:   []network.Payload{InfoMsg{Info: OverstatedInfo(in, c), P: graph.Path{c}}},
	}
}

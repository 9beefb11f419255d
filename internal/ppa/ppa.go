// Package ppa implements the Path Propagation Algorithm — the classic
// full-topology-knowledge baseline for RMT against a general adversary
// (used in [13] and subsumed by RMT-PKA as a special case).
//
// Dealer value messages flood the network carrying their propagation trail,
// exactly like RMT-PKA's type-1 messages (type-2 knowledge exchange is
// unnecessary: every player already knows G and 𝒵). The receiver decides x
// as soon as it holds a path set P_x, all carrying x, such that for every
// admissible corruption set T some path in P_x has a T-free interior.
//
// Safety: for a wrong value x' every x'-carrying path passes through the
// actual corruption set T* (an honest path would have relayed x_D), so the
// quantifier fails at T = T*. Liveness: with full knowledge, RMT is
// solvable iff no D–R cut is the union of two admissible sets ("𝒵-pair
// cut"); then for the actual T* the honest paths hit every T ∈ 𝒵 and the
// receiver decides. Both facts are exercised against RMT-PKA in the eval
// package's baseline comparison.
package ppa

import (
	"context"
	"sort"

	"rmt/internal/core"
	"rmt/internal/cutsearch"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Receiver is PPA's receiver: it collects value-trail messages and applies
// the every-corruption-set-misses-a-path rule.
type Receiver struct {
	id      int
	dealer  int
	z       []nodeset.Set // maximal corruption sets (checking those suffices)
	byValue map[network.Value][]graph.Path
	decided bool
	value   network.Value
}

// NewReceiver builds PPA's receiver for the instance.
func NewReceiver(in *instance.Instance) *Receiver {
	return &Receiver{
		id:      in.Receiver,
		dealer:  in.Dealer,
		z:       in.Z.Maximal(),
		byValue: make(map[network.Value][]graph.Path),
	}
}

// Init implements network.Process.
func (r *Receiver) Init(network.Outbox) {}

// Round implements network.Process.
func (r *Receiver) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	if r.decided {
		return false
	}
	for _, m := range inbox {
		vm, ok := m.Payload.(core.ValueMsg)
		if !ok {
			continue
		}
		trail := vm.P
		if !trail.Admissible(r.id, m.From) {
			continue // forged trail
		}
		if trail.Head() != r.dealer {
			continue // PPA only cares about dealer-rooted paths
		}
		r.byValue[vm.X] = append(r.byValue[vm.X], trail.Append(r.id))
	}
	// Candidate values are scanned in sorted order: outside 𝒵 two values can
	// certify in the same round, and the decision must not depend on map
	// iteration order (the attack sweep asserts byte-identical output).
	candidates := make([]network.Value, 0, len(r.byValue))
	for x := range r.byValue {
		candidates = append(candidates, x)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, x := range candidates {
		if r.certifies(r.byValue[x]) {
			r.decided, r.value = true, x
			return false
		}
	}
	return true
}

// certifies checks: ∀ maximal T ∈ 𝒵 ∃ path whose interior avoids T.
func (r *Receiver) certifies(paths []graph.Path) bool {
	for _, t := range r.z {
		hit := false
		for _, p := range paths {
			if p.Interior().Disjoint(t) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Decision implements network.Process.
func (r *Receiver) Decision() (network.Value, bool) { return r.value, r.decided }

// relay forwards value-trail messages through RMT-PKA's relay step
// (core.Relayed). PPA relays are RMT-PKA relays minus the knowledge
// announcements and the type-2 relaying; reusing core.Relay directly would
// also announce and relay type-2 info, so PPA has its own lean relay.
type relay struct {
	id        int
	neighbors nodeset.Set
}

// Init implements network.Process.
func (r *relay) Init(network.Outbox) {}

// Round implements network.Process.
func (r *relay) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		if _, ok := m.Payload.(core.ValueMsg); !ok {
			continue
		}
		next, ok := core.Relayed(r.id, m)
		if !ok {
			continue
		}
		r.neighbors.ForEach(func(u int) bool {
			out(u, next)
			return true
		})
	}
	return true
}

// Decision implements network.Process.
func (r *relay) Decision() (network.Value, bool) { return "", false }

// dealer sends (x_D, {D}) to all neighbors and terminates.
type dealer struct {
	id        int
	value     network.Value
	neighbors nodeset.Set
}

func (d *dealer) Init(out network.Outbox) {
	d.neighbors.ForEach(func(u int) bool {
		out(u, core.ValueMsg{X: d.value, P: graph.Path{d.id}})
		return true
	})
}
func (d *dealer) Round(int, []network.Message, network.Outbox) bool { return false }
func (d *dealer) Decision() (network.Value, bool)                   { return d.value, true }

// NewProcesses assembles the PPA process map.
func NewProcesses(in *instance.Instance, xD network.Value, corrupt map[int]network.Process) map[int]network.Process {
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), corrupt, func(v int) network.Process {
		switch v {
		case in.Dealer:
			return &dealer{id: v, value: xD, neighbors: in.G.Neighbors(v)}
		case in.Receiver:
			return NewReceiver(in)
		default:
			return &relay{id: v, neighbors: in.G.Neighbors(v)}
		}
	})
}

// Proto is PPA's registry entry; the package registers it under
// protocol.PPA at init.
type Proto struct{}

// Name implements protocol.Protocol.
func (Proto) Name() string { return protocol.PPA }

// Caps implements protocol.Protocol: PPA is the full-topology-knowledge
// baseline and only the receiver decides.
func (Proto) Caps() protocol.Caps { return protocol.Caps{NeedsFullKnowledge: true} }

// Assemble implements protocol.Protocol. PPA's receiver checks its paths
// against the global 𝒵, which only a player who knows G may read, so it
// fails with a protocol.CapsError unless every view γ(v) is G: a pointer
// comparison for view.Full's shared graph, Equal for any other.
func (Proto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	partial := -1
	in.G.Nodes().ForEach(func(v int) bool {
		if gv := in.Gamma.Of(v); gv != in.G && !gv.Equal(in.G) {
			partial = v
		}
		return partial < 0
	})
	if partial >= 0 {
		return nil, protocol.Capsf(protocol.PPA, "node %d does not know G; PPA needs full topology knowledge", partial)
	}
	return NewProcesses(in, xD, opts.Corrupt), nil
}

// Solvable implements protocol.Feasibility: with full knowledge, PPA is
// tight against the 𝒵-pair cut condition.
func (Proto) Solvable(in *instance.Instance) bool {
	_, _, cut := PairCut(in)
	return !cut
}

func init() { protocol.Register(Proto{}) }

// PairCut searches for a 𝒵-pair cut: a D–R separator C = Z1 ∪ Z2 with
// Z1, Z2 ∈ 𝒵 — the full-knowledge impossibility condition PPA is tight
// against. It returns a witness if one exists. On the cutsearch kernel it
// is the JointView test with V(G) as every node's view: t = C \ M1 must
// lie in one maximal set, and the witness is (C ∩ M1, C \ M1).
func PairCut(in *instance.Instance) (z1, z2 nodeset.Set, found bool) {
	cond := cutsearch.FromInstance(in, cutsearch.JointView)
	cond.Views = wholeGraph{in.G}
	w, found, _, _ := cutsearch.Search(context.Background(), cond, 0)
	return w.C1, w.C2, found
}

// wholeGraph gives every node V(G) as its view: full knowledge.
type wholeGraph struct{ g *graph.Graph }

func (w wholeGraph) NodesOf(int) nodeset.Set { return w.g.Nodes() }

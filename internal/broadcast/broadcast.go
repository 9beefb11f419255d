// Package broadcast implements Reliable Broadcast with an honest dealer —
// the setting the paper's RMT results descend from ([13]; CPA goes back to
// Koo). Every player, not just a designated receiver, must decide on the
// dealer's value.
//
// The protocol is 𝒵-CPA in its original broadcast role: every non-dealer
// player relays its decided value once. The tight feasibility condition is
// the 𝒵-partial-pair cut of [13] (reproduced as Definition 10 in the
// paper's appendix): a cut C = C1 ∪ C2 with D outside, C1 ∈ 𝒵, and every
// node u on the far side satisfying N(u) ∩ C2 ∈ Z_u. The package provides
// the protocol runner, the cut checker, and operational resilience checks,
// which the tests cross-validate against each other — and against the RMT
// machinery: broadcast is solvable iff RMT is solvable to every honest
// candidate receiver.
package broadcast

import (
	"context"
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/cutsearch"
	"rmt/internal/graph"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
	"rmt/internal/zcpa"
)

// Instance is a broadcast instance (G, 𝒵, D) with a view function for the
// players' local structures (ad hoc in the classical setting).
type Instance struct {
	G      *graph.Graph
	Z      adversary.Structure
	Gamma  view.Function
	Dealer int

	local adversary.LocalKnowledge
}

// New validates and assembles a broadcast instance with ad hoc views.
func New(g *graph.Graph, z adversary.Structure, dealer int) (*Instance, error) {
	return NewWithViews(g, z, view.AdHoc(g), dealer)
}

// NewWithViews assembles a broadcast instance with explicit views.
func NewWithViews(g *graph.Graph, z adversary.Structure, gamma view.Function, dealer int) (*Instance, error) {
	if !g.HasNode(dealer) {
		return nil, fmt.Errorf("broadcast: dealer %d is not a node", dealer)
	}
	if z.Ground().Contains(dealer) {
		return nil, fmt.Errorf("broadcast: structure can corrupt the dealer")
	}
	if !z.Ground().SubsetOf(g.Nodes()) {
		return nil, fmt.Errorf("broadcast: structure mentions non-nodes")
	}
	if err := gamma.ConsistentWith(g); err != nil {
		return nil, fmt.Errorf("broadcast: %w", err)
	}
	return &Instance{
		G:      g,
		Z:      z,
		Gamma:  gamma,
		Dealer: dealer,
		local:  gamma.AllLocalStructures(z),
	}, nil
}

// LocalStructure returns Z_u.
func (in *Instance) LocalStructure(u int) adversary.Restricted {
	if r, ok := in.local[u]; ok {
		return r
	}
	return adversary.Identity()
}

type localOracle struct{ in *Instance }

func (o localOracle) Member(v int, reporters nodeset.Set) bool {
	return o.in.LocalStructure(v).Contains(reporters)
}

// NewProcesses assembles the 𝒵-CPA broadcast process map: the dealer plus
// relay-and-decide players everywhere, with the given corrupted overrides
// (the dealer cannot be corrupted).
func NewProcesses(in *Instance, xD network.Value, corrupt map[int]network.Process) map[int]network.Process {
	return zcpa.NewPlayers(in.G, in.Dealer, -1, nodeset.Of(in.Dealer), xD, corrupt, zcpa.WrapOracle(localOracle{in: in}))
}

// Run executes 𝒵-CPA broadcast and returns the run result; decisions of
// all players are in Result.Decisions.
func Run(in *Instance, xD network.Value, corrupt map[int]network.Process, engine network.Engine) (*network.Result, error) {
	return network.Run(network.Config{
		Graph:     in.G,
		Processes: NewProcesses(in, xD, corrupt),
		Engine:    engine,
	})
}

// Resilient reports whether broadcast succeeds for EVERY admissible
// corruption set: every honest player decides the dealer's value against
// the silent adversary (the liveness-worst behavior for this safe
// protocol).
//
// Unlike RMT, broadcast resilience is not monotone in the corruption set:
// corrupting fewer nodes leaves more honest players that must decide, so a
// strict subset of a maximal set can be the hard case (e.g. the stranded
// honest node whose only link is corrupted). The check therefore
// enumerates all members of 𝒵, which is exponential in the maximal-set
// sizes — fine at the instance scales of this repository.
func Resilient(in *Instance) (bool, error) {
	resilient := true
	var runErr error
	in.Z.Members(func(t nodeset.Set) bool {
		res, err := Run(in, "1", protocol.Silence(t), nil)
		if err != nil {
			runErr = err
			return false
		}
		in.G.Nodes().Minus(t).ForEach(func(v int) bool {
			if got, decided := res.DecisionOf(v); !decided || got != "1" {
				resilient = false
				return false
			}
			return true
		})
		return resilient
	})
	if runErr != nil {
		return false, runErr
	}
	return resilient, nil
}

// ZppCut witnesses Definition 10: a 𝒵-partial-pair cut for broadcast.
type ZppCut struct {
	C1, C2 nodeset.Set
	B      nodeset.Set
}

func (c ZppCut) String() string {
	return fmt.Sprintf("BroadcastZppCut(C1=%v, C2=%v, B=%v)", c.C1, c.C2, c.B)
}

// FindZppCut searches for a Definition-10 cut on the cutsearch kernel.
// Candidate far sides B are connected sets avoiding the dealer and its
// boundary; each connected set is enumerated exactly once, from its least
// member, by walking from every non-dealer start in increasing ID order
// with the smaller IDs banned. C = N(B) is the least cut realizing B, which
// suffices because the per-node condition N(u) ∩ C2 ∈ Z_u is
// monotone-decreasing in C2.
func FindZppCut(in *Instance) (ZppCut, bool) {
	w, found, _, _ := cutsearch.Search(context.Background(), cutsearch.Input{
		G: in.G, Dealer: in.Dealer, Receiver: -1,
		C1: in.Z.Maximal(), Views: &in.Gamma, Rule: cutsearch.Neighborhood,
	}, 0)
	return ZppCut(w), found
}

// Solvable reports whether broadcast is achievable: no Definition-10 cut.
func Solvable(in *Instance) bool {
	_, found := FindZppCut(in)
	return !found
}

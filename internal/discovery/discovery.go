// Package discovery implements Byzantine-resilient topology discovery — the
// application direction the paper's conclusions point at ([12], [4]): "the
// techniques used here (e.g. the ⊕ operation) may be applicable to that
// problem under a Byzantine adversary".
//
// Every node floods its initial knowledge ((v, γ(v), Z_v), trail) with
// RMT-PKA's type-2 messages and admission rules (trails pinned to
// authenticated channels). An observer reconstructs:
//
//   - the confirmed graph: an edge is accepted iff both endpoints claim it
//     (bilateral confirmation) or the observer is an endpoint — so a forged
//     edge between two honest nodes is never accepted;
//   - the contested set: nodes for which conflicting claim versions
//     arrived, which can only happen under corruption;
//   - the joint adversary structure: the ⊕-fold of the uncontested claims,
//     i.e. the worst-case adversary consistent with everything learned.
//
// Guarantees validated by the tests:
//
//  1. completeness — honest nodes reachable from the observer through
//     honest nodes are discovered with their true views;
//  2. bilateral soundness — every confirmed edge between honest nodes is a
//     real edge of G;
//  3. forgery containment — fabricated edges survive only when a corrupted
//     node is an endpoint of the forgery (where they are inherently
//     undetectable without further assumptions);
//  4. the joint structure always contains the real structure's restriction
//     (Corollary 2 carried over to discovery).
package discovery

import (
	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/graph"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// Observer collects type-2 claims and reconstructs the topology.
type Observer struct {
	id     int
	own    core.NodeInfo
	claims map[int]map[string]core.NodeInfo
}

// NewObserver builds the observing process for node id with its own
// initial knowledge.
func NewObserver(id int, ownView *graph.Graph, ownZ adversary.Restricted) *Observer {
	return &Observer{
		id:     id,
		own:    core.NodeInfo{Node: id, View: ownView, Z: ownZ},
		claims: make(map[int]map[string]core.NodeInfo),
	}
}

// Init implements network.Process.
func (o *Observer) Init(network.Outbox) {}

// Round implements network.Process: ingest claims forever (the engine's
// quiescence detection ends the run).
func (o *Observer) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	for _, m := range inbox {
		im, ok := m.Payload.(core.InfoMsg)
		if !ok {
			continue
		}
		if !im.P.Admissible(o.id, m.From) {
			continue // forged trail
		}
		byVersion, ok := o.claims[im.Info.Node]
		if !ok {
			byVersion = make(map[string]core.NodeInfo)
			o.claims[im.Info.Node] = byVersion
		}
		byVersion[im.Info.VersionKey()] = im.Info
	}
	return true
}

// Decision implements network.Process: discovery has no value decision.
func (o *Observer) Decision() (network.Value, bool) { return "", false }

// Result is the reconstruction output.
type Result struct {
	// Known lists every node some claim mentions (including the observer).
	Known nodeset.Set
	// Contested lists nodes with conflicting claim versions — proof of
	// corruption somewhere on their delivery paths.
	Contested nodeset.Set
	// Confirmed contains the bilateral-confirmed topology.
	Confirmed *graph.Graph
	// Claimed is the union of all (first-version) claims: the optimistic
	// picture, sound only for honest claimants.
	Claimed *graph.Graph
	// Joint is the ⊕-fold of the uncontested claims' local structures.
	Joint adversary.Restricted
}

// Reconstruct builds the discovery result from the observer's state.
func (o *Observer) Reconstruct() *Result {
	res := &Result{
		Known:     nodeset.Of(o.id),
		Contested: nodeset.Empty(),
		Confirmed: graph.New(),
		Claimed:   graph.New(),
	}
	res.Confirmed.AddNode(o.id)

	// One representative claim per node; contested nodes flagged.
	chosen := map[int]core.NodeInfo{o.id: o.own}
	for node, versions := range o.claims {
		if node == o.id {
			continue
		}
		res.Known = res.Known.Add(node)
		if len(versions) > 1 {
			res.Contested = res.Contested.Add(node)
			continue
		}
		for _, ni := range versions {
			chosen[node] = ni
		}
	}
	for _, ni := range chosen {
		res.Claimed = res.Claimed.Union(ni.View)
		ni.View.Nodes().ForEach(func(v int) bool {
			res.Known = res.Known.Add(v)
			return true
		})
	}
	// Bilateral confirmation: keep {a, b} iff both endpoints' chosen
	// claims contain it, or the observer is an endpoint (it trusts its
	// own channels).
	for _, e := range res.Claimed.Edges() {
		a, b := e[0], e[1]
		if a == o.id || b == o.id {
			if o.own.View.HasEdge(a, b) {
				res.Confirmed.AddEdge(a, b)
			}
			continue
		}
		ca, okA := chosen[a]
		cb, okB := chosen[b]
		if okA && okB && ca.View.HasEdge(a, b) && cb.View.HasEdge(a, b) {
			res.Confirmed.AddEdge(a, b)
		}
	}
	// Joint adversary knowledge from uncontested claims.
	restricted := make([]adversary.Restricted, 0, len(chosen))
	ids := make([]int, 0, len(chosen))
	for id := range chosen {
		ids = append(ids, id)
	}
	nodeset.FromSlice(ids).ForEach(func(id int) bool {
		restricted = append(restricted, chosen[id].Z)
		return true
	})
	res.Joint = adversary.JoinAll(restricted...)
	return res
}

// Run floods every node's knowledge through the network and returns the
// observer's reconstruction. Corrupted nodes run the supplied processes
// (the observer itself cannot be corrupted).
func Run(g *graph.Graph, z adversary.Structure, gamma view.Function, observer int, corrupt map[int]network.Process, engine network.Engine) (*Result, error) {
	// Every node's Z_v goes through one index of 𝒵.
	ix := adversary.NewIndex(z)
	obs := NewObserver(observer, gamma.Of(observer), ix.RestrictTo(gamma.NodesOf(observer)))
	procs := make(map[int]network.Process, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		if v == observer {
			procs[v] = obs
			return true
		}
		info := core.NodeInfo{Node: v, View: gamma.Of(v), Z: ix.RestrictTo(gamma.NodesOf(v))}
		procs[v] = core.NewRelayAt(v, g.Neighbors(v), info)
		return true
	})
	for v, proc := range corrupt {
		if v == observer {
			continue
		}
		procs[v] = proc
	}
	if _, err := network.Run(network.Config{Graph: g, Processes: procs, Engine: engine}); err != nil {
		return nil, err
	}
	return obs.Reconstruct(), nil
}

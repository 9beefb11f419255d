package instance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"rmt/internal/graph"
	"rmt/internal/view"
)

// This file defines topology deltas — batched edge/node edits to an
// instance's communication graph — and the versioned key chain that gives
// every (base instance, delta sequence) pair its own cache identity.
//
// An Instance is immutable; applying a Delta produces a fresh Instance over
// the edited graph, with the adversary structure restricted to the
// surviving nodes and the view function rebuilt from the new topology (a
// node's view is derived from the graph, so a topology edit changes what
// its neighbors see — views cannot be patched independently).
//
// Identity is deliberately path-dependent: ChainKey hashes the base
// instance's CanonicalKey with each delta's canonical rendering in order,
// so "base" and "base plus a delta that happens to round-trip to the same
// graph" occupy distinct cache lines. The rmtd watch API relies on this:
// a subscription's step results are cached under its chain keys and can
// never collide with — or evict — the base instance's entry.

// Delta is one batch of topology edits. The zero value is the empty delta.
// Fields use the JSON names the rmtd watch API accepts on the wire.
//
// Application order within one delta: nodes are added, then edges added,
// then edges removed, then nodes removed (with their incident edges). A
// single delta can therefore rewire a region in one step — e.g. add a
// replacement relay and drop the old one — without intermediate instances
// existing.
type Delta struct {
	AddNodes    []int    `json:"add_nodes,omitempty"`
	AddEdges    [][2]int `json:"add_edges,omitempty"`
	RemoveEdges [][2]int `json:"remove_edges,omitempty"`
	RemoveNodes []int    `json:"remove_nodes,omitempty"`
}

// IsZero reports whether the delta carries no edits.
func (d Delta) IsZero() bool {
	return len(d.AddNodes) == 0 && len(d.AddEdges) == 0 &&
		len(d.RemoveEdges) == 0 && len(d.RemoveNodes) == 0
}

// CanonicalString renders the delta in a canonical textual form: each edit
// class deduplicated and sorted, edges normalized to (min, max). Two deltas
// render equal strings iff they describe the same edit batch, which makes
// the rendering a sound ChainKey ingredient.
func (d Delta) CanonicalString() string {
	var b strings.Builder
	b.WriteString("rmt-delta-v1\n")
	fmt.Fprintf(&b, "+V{%s} +E{%s} -E{%s} -V{%s}",
		canonicalIDs(d.AddNodes), canonicalEdges(d.AddEdges),
		canonicalEdges(d.RemoveEdges), canonicalIDs(d.RemoveNodes))
	return b.String()
}

func canonicalIDs(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var b strings.Builder
	last := -1
	for _, id := range sorted {
		if id == last {
			continue
		}
		if last >= 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", id)
		last = id
	}
	return b.String()
}

func canonicalEdges(edges [][2]int) string {
	sorted := make([][2]int, len(edges))
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		sorted[i] = e
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	var b strings.Builder
	last := [2]int{-1, -1}
	for _, e := range sorted {
		if e == last {
			continue
		}
		if last[0] >= 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
		last = e
	}
	return b.String()
}

// ChainKey extends a version-chain key by one delta:
//
//	k_0 = base.CanonicalKey()
//	k_i = hex(SHA-256("rmt-delta-chain-v1\n" + k_{i-1} + "\n" + delta_i.CanonicalString()))
//
// The chain is what keys server caches for evolving topologies: it is
// injective on (base, delta sequence) up to hash collision, never equal to
// any base instance's CanonicalKey (the chain hashes a domain-separated
// preimage), and order-sensitive — applying the same edits in a different
// order is a different subscription history and gets different keys.
func ChainKey(prev string, d Delta) string {
	sum := sha256.Sum256([]byte("rmt-delta-chain-v1\n" + prev + "\n" + d.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// ChainKeys returns the full key chain k_1..k_n for a delta sequence
// applied to the instance: ChainKeys(in, ds)[i] keys the revision after
// ds[0..i] have been applied.
func ChainKeys(in *Instance, deltas []Delta) []string {
	keys := make([]string, len(deltas))
	prev := in.CanonicalKey()
	for i, d := range deltas {
		prev = ChainKey(prev, d)
		keys[i] = prev
	}
	return keys
}

// Validate checks a delta against the instance it is to be applied to,
// without applying it: every referenced ID lies in [0, graph.MaxNodeID],
// added edges are not self-loops, removed edges/nodes exist (after this
// delta's additions), and the terminals survive. Apply calls it; the watch
// API calls it to reject a bad subscription step with a useful error
// instead of a failed instance rebuild.
func (d Delta) Validate(in *Instance) error {
	present := func(id int) bool {
		if in.G.HasNode(id) {
			return true
		}
		for _, n := range d.AddNodes {
			if n == id {
				return true
			}
		}
		for _, e := range d.AddEdges {
			if e[0] == id || e[1] == id {
				return true
			}
		}
		return false
	}
	checkID := func(id int, what string) error {
		if id < 0 {
			return fmt.Errorf("instance: delta %s references negative node %d", what, id)
		}
		if id > graph.MaxNodeID {
			return fmt.Errorf("instance: delta %s node %d exceeds the %d ID limit", what, id, graph.MaxNodeID)
		}
		return nil
	}
	for _, n := range d.AddNodes {
		if err := checkID(n, "add_nodes"); err != nil {
			return err
		}
	}
	for _, e := range d.AddEdges {
		if err := checkID(e[0], "add_edges"); err != nil {
			return err
		}
		if err := checkID(e[1], "add_edges"); err != nil {
			return err
		}
		if e[0] == e[1] {
			return fmt.Errorf("instance: delta adds self-loop %d-%d", e[0], e[1])
		}
	}
	for _, e := range d.RemoveEdges {
		if err := checkID(e[0], "remove_edges"); err != nil {
			return err
		}
		if err := checkID(e[1], "remove_edges"); err != nil {
			return err
		}
		if !in.G.HasEdge(e[0], e[1]) && !edgeAdded(d.AddEdges, e) {
			return fmt.Errorf("instance: delta removes absent edge %d-%d", e[0], e[1])
		}
	}
	for _, n := range d.RemoveNodes {
		if err := checkID(n, "remove_nodes"); err != nil {
			return err
		}
		if !present(n) {
			return fmt.Errorf("instance: delta removes absent node %d", n)
		}
		if n == in.Dealer {
			return fmt.Errorf("instance: delta removes the dealer %d", n)
		}
		if n == in.Receiver {
			return fmt.Errorf("instance: delta removes the receiver %d", n)
		}
	}
	return nil
}

func edgeAdded(added [][2]int, e [2]int) bool {
	for _, a := range added {
		if (a == e) || (a[0] == e[1] && a[1] == e[0]) {
			return true
		}
	}
	return false
}

// Apply produces the instance after the delta: the graph is cloned and
// edited, the adversary structure is restricted to the surviving nodes,
// and rebuildView derives the new view function γ from the edited graph
// (callers with a gen.Knowledge level pass level.View; see gen.ApplyDelta).
// The receiver and dealer must survive; the returned instance is validated
// by New, so e.g. a delta that grows the graph under a view function whose
// domain no longer matches fails loudly.
func Apply(in *Instance, d Delta, rebuildView func(*graph.Graph) view.Function) (*Instance, error) {
	if err := d.Validate(in); err != nil {
		return nil, err
	}
	g := in.G.Clone()
	for _, n := range d.AddNodes {
		g.AddNode(n)
	}
	for _, e := range d.AddEdges {
		g.AddEdge(e[0], e[1])
	}
	for _, e := range d.RemoveEdges {
		g.RemoveEdge(e[0], e[1])
	}
	for _, n := range d.RemoveNodes {
		g.RemoveNode(n)
	}
	z := in.Z
	if len(d.RemoveNodes) > 0 {
		z = z.Restrict(g.Nodes())
	}
	return New(g, z, rebuildView(g), in.Dealer, in.Receiver)
}

// ApplyChain folds Apply over a delta sequence, returning the final
// instance. It fails on the first delta that does not apply.
func ApplyChain(in *Instance, deltas []Delta, rebuildView func(*graph.Graph) view.Function) (*Instance, error) {
	cur := in
	for i, d := range deltas {
		next, err := Apply(cur, d, rebuildView)
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

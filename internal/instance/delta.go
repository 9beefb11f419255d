package instance

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"rmt/internal/graph"
	"rmt/internal/nodeset"
	"rmt/internal/view"
)

// This file defines topology deltas — batched edge/node edits to an
// instance's communication graph — and the versioned key chain that gives
// every (base instance, delta sequence) pair its own cache identity.
//
// An Instance is immutable; applying a Delta produces a fresh Instance over
// the edited graph, with the adversary structure restricted to the
// surviving nodes and the view function rebuilt from the new topology. A
// node's view is derived from the graph near it, so an edit changes the
// views of the nodes near the edited ones and no others: the rebuild
// builds those and carries every other view over, the same pointer.
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

// CanonicalString renders the delta in a canonical textual form: each edit
// class deduplicated and sorted, edges normalized to (min, max). Two deltas
// render equal strings iff they describe the same edit batch, which makes
// the rendering a sound ChainKey ingredient.
func (d Delta) CanonicalString() string { return string(d.appendCanonical(nil)) }

// appendCanonical appends CanonicalString's text to buf.
func (d Delta) appendCanonical(buf []byte) []byte {
	buf = append(buf, "rmt-delta-v1\n+V{"...)
	buf = appendIDs(buf, d.AddNodes)
	buf = append(buf, "} +E{"...)
	buf = appendEdges(buf, d.AddEdges)
	buf = append(buf, "} -E{"...)
	buf = appendEdges(buf, d.RemoveEdges)
	buf = append(buf, "} -V{"...)
	buf = appendIDs(buf, d.RemoveNodes)
	return append(buf, '}')
}

func appendIDs(buf []byte, ids []int) []byte {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for i, id := range slices.Compact(sorted) {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return buf
}

func appendEdges(buf []byte, edges [][2]int) []byte {
	sorted := make([][2]int, len(edges))
	for i, e := range edges {
		sorted[i] = [2]int{min(e[0], e[1]), max(e[0], e[1])}
	}
	slices.SortFunc(sorted, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for i, e := range slices.Compact(sorted) {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
	}
	return buf
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
	buf := make([]byte, 0, 128+len(prev))
	buf = append(buf, "rmt-delta-chain-v1\n"...)
	buf = append(buf, prev...)
	buf = append(buf, '\n')
	sum := sha256.Sum256(d.appendCanonical(buf))
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
// delta's additions), and the terminals survive. Apply calls it first and
// returns its error as it is, so the watch API's error line for a bad
// subscription step names the bad edit, not a failed instance rebuild.
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

// Rebuild derives the view function of an edited graph g from prev, the
// view function before the edit. changed holds every node of g whose
// neighborhood the edit changed, the added nodes included. It returns γ
// and the nodes whose views it built: Apply checks those against g, and
// every other view must be prev's view of a node the edit cannot have
// reached (DESIGN §31). A rebuild that builds every view returns V(g).
type Rebuild func(g *graph.Graph, prev view.Function, changed nodeset.Set) (gamma view.Function, built nodeset.Set)

// Apply produces the instance after the delta: the graph is cloned and
// edited, the adversary structure is restricted to the surviving nodes,
// and rebuild derives the new view function γ from the edited graph and
// the old γ (callers with a gen.Knowledge level use gen.ApplyDelta, which
// at ad hoc rebuilds only the stars the delta changed). The receiver and
// dealer must survive; the returned instance is validated as New
// validates it, with only the views rebuild built checked against the new
// graph, so e.g. a delta that grows the graph under a view function whose
// domain no longer matches fails loudly.
func Apply(in *Instance, d Delta, rebuild Rebuild) (*Instance, error) {
	if err := d.Validate(in); err != nil {
		return nil, err
	}
	g := in.G.Clone()
	var changed nodeset.Set
	for _, n := range d.AddNodes {
		g.AddNode(n)
		changed.MutateAdd(n)
	}
	for _, e := range d.AddEdges {
		g.AddEdge(e[0], e[1])
		changed.MutateAdd(e[0])
		changed.MutateAdd(e[1])
	}
	for _, e := range d.RemoveEdges {
		g.RemoveEdge(e[0], e[1])
		changed.MutateAdd(e[0])
		changed.MutateAdd(e[1])
	}
	for _, n := range d.RemoveNodes {
		// A removed node's edges count as removed; it has no view left.
		changed.MutateUnion(g.Neighbors(n))
		changed.MutateRemove(n)
		g.RemoveNode(n)
	}
	z := in.Z
	if len(d.RemoveNodes) > 0 {
		z = z.Restrict(g.Nodes())
	}
	gamma, built := rebuild(g, in.Gamma, changed)
	return build(g, z, gamma, built, in.Dealer, in.Receiver)
}

// ApplyChain folds Apply over a delta sequence, returning the final
// instance. It fails on the first delta that does not apply.
func ApplyChain(in *Instance, deltas []Delta, rebuild Rebuild) (*Instance, error) {
	cur := in
	for i, d := range deltas {
		next, err := Apply(cur, d, rebuild)
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

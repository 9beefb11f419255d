package core

import (
	"strconv"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
)

// NodeInfo is the first component of a type-2 message: node u's claimed
// identity and initial knowledge (γ(u), Z_u). For honest nodes the claim is
// the truth; corrupted nodes may claim anything, including information
// about fictitious nodes.
type NodeInfo struct {
	Node int
	View *graph.Graph
	Z    adversary.Restricted

	// key memoizes VersionKey. NodeInfo travels by value through relays, so
	// sealing the key once at construction (Sealed) removes the rendering
	// from every later VersionKey call along the message's whole journey.
	// Unsealed literals (e.g. forged claims in tests) fall back to rendering.
	key string
	// bits memoizes bitSize alongside the key (0 = not yet computed); the
	// metrics tracer calls BitSize once per send of the same sealed claim.
	bits int
}

// VersionKey canonically encodes the claim's content, so that two claims
// about the same node are "the same first component" (Definition 4) iff
// their keys match.
func (ni NodeInfo) VersionKey() string {
	if ni.key != "" {
		return ni.key
	}
	return ni.renderVersionKey()
}

// renderVersionKey renders "node|γ(u)|Z_u" with Graph.String and
// Restricted.String, appended into one buffer.
func (ni NodeInfo) renderVersionKey() string {
	b := make([]byte, 0, 512) // on the stack unless a large claim outgrows it
	b = strconv.AppendInt(b, int64(ni.Node), 10)
	b = append(b, '|')
	b = ni.View.AppendString(b)
	b = append(b, '|')
	b = ni.Z.AppendString(b)
	return string(b)
}

// Sealed returns a copy of ni with its VersionKey and bit size precomputed.
func (ni NodeInfo) Sealed() NodeInfo {
	if ni.key == "" {
		ni.key = ni.renderVersionKey()
	}
	if ni.bits == 0 {
		ni.bits = ni.renderBitSize()
	}
	return ni
}

// TrueInfo returns node v's honest claim (v, γ(v), Z_v), sealed.
func TrueInfo(in *instance.Instance, v int) NodeInfo {
	return NodeInfo{Node: v, View: in.Gamma.Of(v), Z: in.LocalStructure(v)}.Sealed()
}

// UnderstatedInfo returns a claim for node v with the given view and a
// trivial local structure ("nobody I see can be corrupted"), sealed — the
// shape that makes a forged path look maximally trustworthy.
func UnderstatedInfo(v int, view *graph.Graph) NodeInfo {
	return NodeInfo{
		Node: v,
		View: view,
		Z:    adversary.Restricted{Domain: view.Nodes(), Structure: adversary.Trivial()},
	}.Sealed()
}

// OverstatedInfo returns node v's true view with a local structure claiming
// that every node it sees but D and R may be corrupted together, sealed —
// the shape that maximizes the receiver's perceived uncertainty.
func OverstatedInfo(in *instance.Instance, v int) NodeInfo {
	dom := in.Gamma.NodesOf(v)
	return NodeInfo{
		Node: v,
		View: in.Gamma.Of(v),
		Z:    adversary.Restricted{Domain: dom, Structure: adversary.FromSets(dom.Remove(in.Dealer).Remove(in.Receiver))},
	}.Sealed()
}

// bitSize estimates the encoded size: node IDs at 16 bits, edges at 32,
// antichain entries at 16 bits per element. It and renderBitSize take a
// pointer so that reading a sealed claim's size copies nothing.
func (ni *NodeInfo) bitSize() int {
	if ni.bits != 0 {
		return ni.bits
	}
	return ni.renderBitSize()
}

func (ni *NodeInfo) renderBitSize() int {
	bits := 16
	bits += 16*ni.View.NumNodes() + 32*ni.View.NumEdges()
	bits += 16 * ni.Z.Domain.Len()
	for _, m := range ni.Z.Structure.Maximal() {
		bits += 16 * (m.Len() + 1)
	}
	return bits
}

// appendPathKey renders p as comma-separated node IDs into a reused byte
// buffer, for allocation-free intern-table probes.
func appendPathKey(dst []byte, p graph.Path) []byte {
	for i, v := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// ValueMsg is a type-1 message: a claimed dealer value with its trail.
type ValueMsg struct {
	X network.Value
	P graph.Path

	// key memoizes Key. Honest processes seal it at construction and extend
	// it incrementally when relaying; unsealed literals (forged payloads in
	// tests and attack strategies) fall back to rendering per call.
	key string
}

// NewValueMsg builds a type-1 message with its payload key sealed.
func NewValueMsg(x network.Value, p graph.Path) ValueMsg {
	m := ValueMsg{X: x, P: p}
	m.key = m.render()
	return m
}

// BitSize implements network.Payload.
func (m ValueMsg) BitSize() int { return 8*len(m.X) + 16*len(m.P) }

// Key implements network.Payload.
func (m ValueMsg) Key() string {
	if m.key != "" {
		return m.key
	}
	return m.render()
}

func (m ValueMsg) render() string {
	var b strings.Builder
	b.Grow(8 + len(m.X) + 4*len(m.P))
	b.WriteString("t1[")
	b.WriteString(string(m.X))
	b.WriteString("](")
	writePathKey(&b, m.P)
	b.WriteByte(')')
	return b.String()
}

// InfoMsg is a type-2 message: a node's initial knowledge with its trail.
type InfoMsg struct {
	Info NodeInfo
	P    graph.Path

	key string // memoized Key; see ValueMsg.key
}

// NewInfoMsg builds a type-2 message with its payload key sealed.
func NewInfoMsg(info NodeInfo, p graph.Path) InfoMsg {
	m := InfoMsg{Info: info, P: p}
	m.key = m.render()
	return m
}

// BitSize implements network.Payload.
func (m InfoMsg) BitSize() int { return m.Info.bitSize() + 16*len(m.P) }

// Key implements network.Payload.
func (m InfoMsg) Key() string {
	if m.key != "" {
		return m.key
	}
	return m.render()
}

func (m InfoMsg) render() string {
	vk := m.Info.VersionKey()
	var b strings.Builder
	b.Grow(8 + len(vk) + 4*len(m.P))
	b.WriteString("t2[")
	b.WriteString(vk)
	b.WriteString("](")
	writePathKey(&b, m.P)
	b.WriteByte(')')
	return b.String()
}

func writePathKey(b *strings.Builder, p graph.Path) {
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
}

// extendKey derives the payload key of a one-hop trail extension by v from
// the parent's sealed key, rewriting the trailing "(…)" trail segment in
// place of a full re-render — the claim/value portion of the key is
// unchanged by relaying. It returns "" (render required) when the parent
// key is absent. The parent trail must be non-empty, as every admitted
// trail is.
func extendKey(parent string, v int) string {
	if parent == "" {
		return ""
	}
	var b strings.Builder
	b.Grow(len(parent) + 8)
	b.WriteString(parent[:len(parent)-1])
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(v))
	b.WriteByte(')')
	return b.String()
}

// trailOf returns the trail of either message type, or false for foreign
// payloads.
func trailOf(p network.Payload) (graph.Path, bool) {
	switch m := p.(type) {
	case ValueMsg:
		return m.P, true
	case InfoMsg:
		return m.P, true
	default:
		return nil, false
	}
}

// extended rebuilds p, a ValueMsg or InfoMsg, with self appended to its
// trail and its key sealed, derived from p's own sealed key when it has one.
func extended(p network.Payload, self int) network.Payload {
	switch m := p.(type) {
	case ValueMsg:
		nm := ValueMsg{X: m.X, P: m.P.Append(self), key: extendKey(m.key, self)}
		if nm.key == "" {
			nm.key = nm.render()
		}
		return nm
	case InfoMsg:
		nm := InfoMsg{Info: m.Info, P: m.P.Append(self), key: extendKey(m.key, self)}
		if nm.key == "" {
			nm.key = nm.render()
		}
		return nm
	default:
		return nil
	}
}

// Relayed is Protocol 1's relay step for player self on one delivered
// message: it runs the admission check (graph.Path.Admissible) and returns
// the message with self appended to its trail, or false when the message
// is not an RMT-PKA message or its trail is inadmissible. Corrupted players
// that relay honestly, and PPA's relay, extend trails through it; Relay
// runs the same two steps around its rebuild cache, whose key cannot see
// the sender, so it must admit before the lookup.
func Relayed(self int, m network.Message) (network.Payload, bool) {
	trail, ok := trailOf(m.Payload)
	if !ok || !trail.Admissible(self, m.From) {
		return nil, false
	}
	return extended(m.Payload, self), true
}

package wire

import (
	"encoding/json"
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/graph"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/smt"
	"rmt/internal/zcpa"
)

// payloadEnvelope is one payload in transit: a type tag, the type-specific
// JSON body, and the canonical key and bit size computed by the sending
// child. The coordinator never decodes Data — it routes envelopes opaquely
// and exposes Key/Bits to the engine (wirePayload), which is what makes the
// parent-side transcript byte-identical to an in-process run: the payload
// keys entering sort order, dedup and the event stream are the very strings
// the real payloads render.
type payloadEnvelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
	Key  string          `json:"key"`
	Bits int             `json:"bits"`
}

// Payload kind tags. One per payload type that may cross the wire; adding a
// payload type to a protocol means adding its codec arm here.
const (
	kindCoreValue = "core/value"
	kindCoreInfo  = "core/info"
	kindZCPAValue = "zcpa/value"
	kindNoise     = "byzantine/noise"
	kindMBRB      = "mbrb/msg"
	kindSMTShare  = "smt/share"
)

type coreValueBody struct {
	X string `json:"x"`
	P []int  `json:"p,omitempty"`
}

// coreInfoBody flattens a type-2 claim: the view graph as an edge list (the
// cliutil format round-trips isolated nodes) and the restricted structure as
// its domain plus maximal corruption sets.
type coreInfoBody struct {
	Node   int     `json:"node"`
	View   string  `json:"view"`
	Domain []int   `json:"domain,omitempty"`
	Sets   [][]int `json:"sets,omitempty"`
	P      []int   `json:"p,omitempty"`
}

type zcpaValueBody struct {
	X string `json:"x"`
}

type noiseBody struct {
	From  int `json:"from"`
	Round int `json:"round"`
	Seq   int `json:"seq"`
}

type mbrbBody struct {
	Phase string `json:"phase"`
	X     string `json:"x"`
}

type smtShareBody struct {
	Idx int    `json:"idx"`
	P   []int  `json:"p"`
	X   string `json:"x"`
}

// encodePayload wraps one outgoing payload in its envelope. Payload types
// without a codec arm are a hard error: silently passing them through would
// desynchronize the two sides' transcripts.
func encodePayload(p network.Payload) (payloadEnvelope, error) {
	var (
		kind string
		body any
	)
	switch m := p.(type) {
	case core.ValueMsg:
		kind, body = kindCoreValue, coreValueBody{X: string(m.X), P: m.P}
	case core.InfoMsg:
		if m.Info.View == nil {
			return payloadEnvelope{}, fmt.Errorf("wire: type-2 claim about node %d has nil view", m.Info.Node)
		}
		sets := m.Info.Z.Structure.Maximal()
		b := coreInfoBody{
			Node:   m.Info.Node,
			View:   cliutil.FormatEdgeList(m.Info.View),
			Domain: m.Info.Z.Domain.Members(),
			Sets:   make([][]int, len(sets)),
			P:      m.P,
		}
		for i, s := range sets {
			b.Sets[i] = s.Members()
		}
		kind, body = kindCoreInfo, b
	case zcpa.ValuePayload:
		kind, body = kindZCPAValue, zcpaValueBody{X: string(m.X)}
	case byzantine.NoisePayload:
		kind, body = kindNoise, noiseBody{From: m.From, Round: m.Round, Seq: m.Seq}
	case mbrb.Msg:
		kind, body = kindMBRB, mbrbBody{Phase: string(m.Phase), X: string(m.X)}
	case smt.ShareMsg:
		kind, body = kindSMTShare, smtShareBody{Idx: m.Idx, P: m.P, X: m.X}
	default:
		return payloadEnvelope{}, fmt.Errorf("wire: payload type %T has no wire encoding", p)
	}
	data, err := json.Marshal(body)
	if err != nil {
		return payloadEnvelope{}, fmt.Errorf("wire: marshal %s payload: %w", kind, err)
	}
	return payloadEnvelope{Kind: kind, Data: data, Key: p.Key(), Bits: p.BitSize()}, nil
}

// decodePayload rebuilds the real payload value from its envelope. The
// decoded payload must re-render the shipped canonical key — every payload
// kind derives its key purely from encoded content — so codec drift is
// detected instead of silently changing protocol behavior. Every node ID
// it reads must lie in [0, graph.MaxNodeID], as the view's edge list's
// must: node sets are bitsets indexed by ID, so a negative ID would panic
// and a huge one allocate before any check ran.
func decodePayload(env payloadEnvelope) (network.Payload, error) {
	var p network.Payload
	switch env.Kind {
	case kindCoreValue:
		var b coreValueBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		if err := checkIDs(env.Kind, "p", b.P); err != nil {
			return nil, err
		}
		p = core.NewValueMsg(network.Value(b.X), graph.Path(b.P))
	case kindCoreInfo:
		var b coreInfoBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		if err := b.checkIDs(); err != nil {
			return nil, err
		}
		view, err := graph.ParseEdgeList(b.View)
		if err != nil {
			return nil, fmt.Errorf("wire: decode %s view: %w", env.Kind, err)
		}
		sets := make([][]int, len(b.Sets))
		copy(sets, b.Sets)
		z, err := adversary.NewRestricted(nodeset.Of(b.Domain...), adversary.FromSlices(sets...))
		if err != nil {
			return nil, fmt.Errorf("wire: decode %s structure: %w", env.Kind, err)
		}
		info := core.NodeInfo{Node: b.Node, View: view, Z: z}.Sealed()
		p = core.NewInfoMsg(info, graph.Path(b.P))
	case kindZCPAValue:
		var b zcpaValueBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		p = zcpa.ValuePayload{X: network.Value(b.X)}
	case kindNoise:
		var b noiseBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		p = byzantine.NoisePayload{From: b.From, Round: b.Round, Seq: b.Seq}
	case kindMBRB:
		var b mbrbBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		p = mbrb.Msg{Phase: mbrb.Phase(b.Phase), X: network.Value(b.X)}
	case kindSMTShare:
		var b smtShareBody
		if err := json.Unmarshal(env.Data, &b); err != nil {
			return nil, fmt.Errorf("wire: decode %s payload: %w", env.Kind, err)
		}
		if err := checkIDs(env.Kind, "p", b.P); err != nil {
			return nil, err
		}
		p = smt.ShareMsg{Idx: b.Idx, P: graph.Path(b.P), X: b.X}
	default:
		return nil, fmt.Errorf("wire: unknown payload kind %q", env.Kind)
	}
	if got := p.Key(); got != env.Key {
		return nil, fmt.Errorf("wire: %s payload key drift: decoded %q, shipped %q", env.Kind, got, env.Key)
	}
	return p, nil
}

// checkIDs returns an error naming the first of ids outside
// [0, graph.MaxNodeID], read from field of a kind payload.
func checkIDs(kind, field string, ids []int) error {
	for _, id := range ids {
		if id < 0 || id > graph.MaxNodeID {
			return fmt.Errorf("wire: decode %s %s: node %d outside [0, %d]", kind, field, id, graph.MaxNodeID)
		}
	}
	return nil
}

// checkIDs is checkIDs on every ID of a type-2 claim but its view's.
func (b coreInfoBody) checkIDs() error {
	if err := checkIDs(kindCoreInfo, "node", []int{b.Node}); err != nil {
		return err
	}
	if err := checkIDs(kindCoreInfo, "domain", b.Domain); err != nil {
		return err
	}
	for _, s := range b.Sets {
		if err := checkIDs(kindCoreInfo, "sets", s); err != nil {
			return err
		}
	}
	return checkIDs(kindCoreInfo, "p", b.P)
}

// wirePayload is the coordinator-side view of a payload in transit: the
// envelope itself, satisfying network.Payload with the child-computed key
// and bit size. The engine's edge checks, delivery ordering, dedup and
// metrics all operate on these values exactly as they would on the real
// payloads.
type wirePayload struct {
	env payloadEnvelope
}

// BitSize implements network.Payload.
func (p wirePayload) BitSize() int { return p.env.Bits }

// Key implements network.Payload.
func (p wirePayload) Key() string { return p.env.Key }

package byzantine

import (
	"strconv"

	"rmt/internal/core"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// NewEquivocator corrupts node c of the instance to send a different wrong
// value to every neighbor: at Init it claims per-neighbor dealer values on
// both the RMT-PKA type-1 channel and the 𝒵-CPA value channel, and while
// relaying it rewrites every admissible type-1 value into the destination's
// private variant of forged. Type-2 traffic is relayed honestly so the
// attacker's knowledge layer stays above suspicion.
//
// Safety intuition: every equivocated trail ends at the equivocator, so any
// valid message set containing one also contains a corrupted node — the
// receiver's cover check absorbs the attack. In 𝒵-CPA the per-neighbor
// variants fragment the reporter classes instead of concentrating them.
func NewEquivocator(in *instance.Instance, c int, forged network.Value) *core.Forger {
	variant := func(_ network.Value, u int) network.Value {
		return forged + "@" + network.Value(strconv.Itoa(u))
	}
	info := core.InfoMsg{Info: core.TrueInfo(in, c), P: graph.Path{c}}
	per := make(map[int][]network.Payload)
	in.G.Neighbors(c).ForEach(func(u int) bool {
		per[u] = []network.Payload{
			info,
			core.ValueMsg{X: variant(forged, u), P: graph.Path{in.Dealer, c}},
			zcpa.ValuePayload{X: variant(forged, u)},
		}
		return true
	})
	return &core.Forger{ID: c, Neighbors: in.G.Neighbors(c), InitPer: per, FlipValue: variant}
}

// PathForger attacks the trail discipline of type-1 messages: besides
// injecting a fabricated direct-from-dealer claim at Init (backed by a
// fictitious view containing the edge c–D), it mutates every admissible
// type-1 message it relays, cycling through three forgeries — forged value
// on the honest trail, truncated trail (erase the intermediate hops), and
// spliced trail (stitch the last hop directly onto the dealer).
//
// All three keep the trail's last element equal to the forger, which the
// authenticated channels force anyway; the attack tests that receivers never
// trust the *interior* of a trail that passes through a corrupted node.
type PathForger struct {
	id        int
	dealer    int
	neighbors nodeset.Set
	forged    network.Value
	info      core.NodeInfo
	n         int
	seen      map[string]bool
}

// NewTrailForger corrupts node c of the instance with the trail-mutation
// strategy. (The constructor avoids the name NewPathForger, which
// internal/core uses for the legacy injection-only attack.)
func NewTrailForger(in *instance.Instance, c int, forged network.Value) *PathForger {
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(c, in.Dealer)
	return &PathForger{
		id:        c,
		dealer:    in.Dealer,
		neighbors: in.G.Neighbors(c),
		forged:    forged,
		info:      core.UnderstatedInfo(c, fakeView),
		seen:      make(map[string]bool),
	}
}

// Init implements network.Process.
func (f *PathForger) Init(out network.Outbox) {
	trail := graph.Path{f.id}
	f.neighbors.ForEach(func(u int) bool {
		out(u, core.InfoMsg{Info: f.info, P: trail})
		out(u, core.ValueMsg{X: f.forged, P: graph.Path{f.dealer, f.id}})
		out(u, zcpa.ValuePayload{X: f.forged})
		return true
	})
}

// Round implements network.Process.
func (f *PathForger) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case core.ValueMsg:
			if !p.P.Admissible(f.id, m.From) {
				continue
			}
			// Mutate each distinct inbound message once. Truncation and
			// splicing produce trails SHORTER than the input, so without
			// dedup a clique of adjacent PathForgers ping-pongs mutations
			// of mutations forever, amplifying the copy count every round
			// (the trail-extending strategies are bounded by trail
			// admissibility alone; this one is not).
			if f.seen[p.Key()] {
				continue
			}
			f.seen[p.Key()] = true
			next, ok := f.mutate(p)
			if !ok {
				continue
			}
			f.neighbors.ForEach(func(u int) bool {
				out(u, next)
				return true
			})
		case core.InfoMsg:
			relay(f.id, f.neighbors, m, out)
		}
	}
	return true
}

// mutate picks the next forgery in the cycle for an admissible type-1
// message. A mutation that would produce a non-simple trail is skipped.
func (f *PathForger) mutate(p core.ValueMsg) (core.ValueMsg, bool) {
	mode := f.n % 3
	f.n++
	switch mode {
	case 0: // forged value, honest trail
		return core.ValueMsg{X: f.forged, P: p.P.Append(f.id)}, true
	case 1: // truncated trail: pretend the head delivered it directly
		if p.P.Head() == f.id {
			return core.ValueMsg{}, false
		}
		return core.ValueMsg{X: p.X, P: graph.Path{p.P.Head(), f.id}}, true
	default: // spliced trail: stitch the last hop straight onto the dealer
		last := p.P.Tail()
		if last == f.dealer || last == f.id || f.dealer == f.id {
			return core.ValueMsg{}, false
		}
		return core.ValueMsg{X: p.X, P: graph.Path{f.dealer, last, f.id}}, true
	}
}

// Decision implements network.Process.
func (*PathForger) Decision() (network.Value, bool) { return "", false }

// NewViewLiar corrupts node c of the instance to attack the knowledge
// layer only: it announces two contested versions of its own initial
// knowledge (an understated fake view containing direct edges to the dealer
// and the receiver, and an overstated version claiming everything it sees
// may be corrupted), plus a claim on behalf of a fictitious node that
// allegedly sits between the dealer and the liar. All traffic is relayed
// honestly, so any unsafe decision traces back purely to trusting
// fictitious γ/Z claims.
func NewViewLiar(in *instance.Instance, c int) *core.Forger {
	ghost := in.G.MaxID() + 1
	fakeView := in.Gamma.Of(c).Clone()
	fakeView.AddEdge(c, in.Dealer)
	fakeView.AddEdge(c, in.Receiver)
	fakeView.AddEdge(c, ghost)

	ghostView := graph.New()
	ghostView.AddEdge(in.Dealer, ghost)
	ghostView.AddEdge(ghost, c)

	return &core.Forger{
		ID:        c,
		Neighbors: in.G.Neighbors(c),
		InitAll: []network.Payload{
			core.InfoMsg{Info: core.UnderstatedInfo(c, fakeView), P: graph.Path{c}},
			core.InfoMsg{Info: core.OverstatedInfo(in, c), P: graph.Path{c}},
			core.InfoMsg{Info: core.UnderstatedInfo(ghost, ghostView), P: graph.Path{ghost, c}},
		},
	}
}

// Eclipser is a selective-relay adversary: it behaves like an honest player
// but forwards traffic only to neighbors that are no closer to the receiver
// than itself, steering information away from R. It forges nothing, so it is
// a pure liveness attack — safety must hold trivially, and the sweep's
// engine-agreement check gets a strategy whose damage is starvation rather
// than confusion.
type Eclipser struct {
	id      int
	allowed nodeset.Set
	info    core.NodeInfo
	seen    map[string]bool
}

// NewEclipser corrupts node c of the instance with the selective-relay
// strategy, suppressing every link that makes progress toward the receiver.
func NewEclipser(in *instance.Instance, c int) *Eclipser {
	dist := in.G.Distances(in.Receiver)
	allowed := nodeset.Empty()
	in.G.Neighbors(c).ForEach(func(u int) bool {
		if dist[u] < 0 || dist[c] < 0 || dist[u] >= dist[c] {
			allowed = allowed.Add(u)
		}
		return true
	})
	return &Eclipser{
		id:      c,
		allowed: allowed,
		info:    core.TrueInfo(in, c),
		seen:    make(map[string]bool),
	}
}

// Init implements network.Process.
func (e *Eclipser) Init(out network.Outbox) {
	e.allowed.ForEach(func(u int) bool {
		out(u, core.InfoMsg{Info: e.info, P: graph.Path{e.id}})
		return true
	})
}

// Round implements network.Process.
func (e *Eclipser) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	for _, m := range inbox {
		p, isValue := m.Payload.(zcpa.ValuePayload)
		if !isValue {
			relay(e.id, e.allowed, m, out)
			continue
		}
		// 𝒵-CPA payloads carry no trail; dedup by key so two adjacent
		// Eclipsers cannot ping-pong the same value forever.
		if e.seen[p.Key()] {
			continue
		}
		e.seen[p.Key()] = true
		e.allowed.ForEach(func(u int) bool {
			out(u, p)
			return true
		})
	}
	return true
}

// Decision implements network.Process.
func (*Eclipser) Decision() (network.Value, bool) { return "", false }

// relay sends m on to every node of to through core.Relayed, Protocol 1's
// relay step, when its trail is admissible at self: the honest relaying a
// strategy keeps up so that its presence stays plausible.
func relay(self int, to nodeset.Set, m network.Message, out network.Outbox) {
	next, ok := core.Relayed(self, m)
	if !ok {
		return
	}
	to.ForEach(func(u int) bool {
		out(u, next)
		return true
	})
}

// funcStrategy adapts a build function into a registered Strategy.
type funcStrategy struct {
	name  string
	desc  string
	build func(in *instance.Instance, c int, forged network.Value, i int) network.Process
}

func (s funcStrategy) Name() string     { return s.name }
func (s funcStrategy) Describe() string { return s.desc }

// Build implements Strategy: every node of t is corrupted with the same
// behavior kind. ForEach iterates in increasing ID order, so the overlay —
// including per-index artifacts like ghost IDs — is deterministic.
func (s funcStrategy) Build(in *instance.Instance, t nodeset.Set, forged network.Value) map[int]network.Process {
	m := make(map[int]network.Process, t.Len())
	i := 0
	t.ForEach(func(c int) bool {
		m[c] = s.build(in, c, forged, i)
		i++
		return true
	})
	return m
}

// silence registers protocol.Silence, the one silent player.
type silence struct{}

func (silence) Name() string { return SilentName }
func (silence) Describe() string {
	return "drop everything (worst case for liveness of safe protocols)"
}

// Build implements Strategy.
func (silence) Build(_ *instance.Instance, t nodeset.Set, _ network.Value) map[int]network.Process {
	return protocol.Silence(t)
}

func init() {
	Register(silence{})
	for _, s := range []funcStrategy{
		{SpammerName, "flood neighbors with erroneous junk payloads every round",
			func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
				return &Spammer{ID: c, Neighbors: in.G.Neighbors(c)}
			}},
		{ReplayerName, "echo each distinct received payload back to all neighbors once",
			func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
				return &Replayer{Neighbors: in.G.Neighbors(c)}
			}},
		{EquivocatorName, "send a different forged value to every neighbor, on both value channels",
			func(in *instance.Instance, c int, forged network.Value, _ int) network.Process {
				return NewEquivocator(in, c, forged)
			}},
		{PathForgerName, "mutate relayed trails: forged value, truncation, dealer splice",
			func(in *instance.Instance, c int, forged network.Value, _ int) network.Process {
				return NewTrailForger(in, c, forged)
			}},
		{ViewLiarName, "announce contested fictitious views and local structures, relay honestly",
			func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
				return NewViewLiar(in, c)
			}},
		{EclipserName, "relay honestly but only away from the receiver (starvation)",
			func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
				return NewEclipser(in, c)
			}},
		{ValueFlipName, "relay type-1 messages with the forged value substituted",
			func(in *instance.Instance, c int, forged network.Value, _ int) network.Process {
				return core.NewValueFlipper(in, c, forged)
			}},
		{PathForgeryName, "inject a fabricated direct-from-dealer value backed by a fake view",
			func(in *instance.Instance, c int, forged network.Value, _ int) network.Process {
				return core.NewPathForger(in, c, forged)
			}},
		{GhostNodeName, "invent a fictitious node connecting the dealer to the attacker",
			func(in *instance.Instance, c int, forged network.Value, i int) network.Process {
				return core.NewGhostForger(in, c, in.G.MaxID()+1+i, forged)
			}},
		{SplitBrainName, "present two versions of own knowledge to two halves of the neighborhood",
			func(in *instance.Instance, c int, forged network.Value, _ int) network.Process {
				return core.NewSplitBrain(in, c, forged)
			}},
		{StructureLiarName, "relay faithfully but claim every visible subset may be corrupted",
			func(in *instance.Instance, c int, _ network.Value, _ int) network.Process {
				return core.NewStructureLiar(in, c)
			}},
	} {
		Register(s)
	}
}

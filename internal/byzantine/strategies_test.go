package byzantine

import (
	"fmt"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/zcpa"
)

// pathsInstance is the 3×1 disjoint-paths fixture: dealer 0, relays 1–3,
// receiver 4, singleton corruptions.
func pathsInstance(t *testing.T) *instance.Instance {
	t.Helper()
	g, d, r := gen.DisjointPaths(3, 1)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(1, 2, 3)), d, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRegistryRoundTrip(t *testing.T) {
	want := []string{
		SilentName, SpammerName, ReplayerName,
		EquivocatorName, PathForgerName, ViewLiarName, EclipserName,
		ValueFlipName, PathForgeryName, GhostNodeName, SplitBrainName, StructureLiarName,
		ReadyForgerName,
		ListenerName, ListenerQuietName,
	}
	names := Names()
	for _, w := range want {
		s, ok := Get(w)
		if !ok {
			t.Fatalf("strategy %q not registered (have %v)", w, names)
		}
		if s.Name() != w {
			t.Fatalf("Get(%q).Name() = %q", w, s.Name())
		}
		if s.Describe() == "" {
			t.Fatalf("strategy %q has no description", w)
		}
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d strategies, want %d: %v", len(names), len(want), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if len(All()) != len(names) {
		t.Fatalf("All() and Names() disagree")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get accepted an unknown name")
	}
	if msg := UnknownError("nope").Error(); !strings.Contains(msg, "nope") || !strings.Contains(msg, SilentName) {
		t.Fatalf("UnknownError lacks context: %s", msg)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(funcStrategy{name: SilentName})
}

func TestStrategiesBuildDeterministic(t *testing.T) {
	// Every registered strategy must produce a process per corrupted node
	// and (for per-index artifacts like ghost IDs) the same overlay shape on
	// repeated builds.
	in := pathsInstance(t)
	corrupt := nodeset.Of(1, 3)
	for _, s := range All() {
		a := s.Build(in, corrupt, "bad")
		b := s.Build(in, corrupt, "bad")
		if len(a) != 2 || len(b) != 2 {
			t.Fatalf("%s: overlay sizes %d/%d, want 2", s.Name(), len(a), len(b))
		}
		for _, c := range []int{1, 3} {
			if a[c] == nil || b[c] == nil {
				t.Fatalf("%s: node %d missing from overlay", s.Name(), c)
			}
		}
	}
}

// initSends collects what a process emits at Init, per destination.
func initSends(p network.Process) map[int][]network.Payload {
	got := make(map[int][]network.Payload)
	p.Init(func(to int, payload network.Payload) {
		got[to] = append(got[to], payload)
	})
	return got
}

func TestEquivocatorSendsDistinctVariants(t *testing.T) {
	in := pathsInstance(t)
	e := NewEquivocator(in, 1, "bad") // neighbors: dealer 0, receiver 4
	sends := initSends(e)
	values := make(map[int]network.Value)
	for to, payloads := range sends {
		for _, p := range payloads {
			if vm, ok := p.(core.ValueMsg); ok {
				values[to] = vm.X
				if vm.P.Tail() != 1 {
					t.Fatalf("forged trail does not end at the attacker: %v", vm.P)
				}
			}
		}
	}
	if len(values) != 2 || values[0] == values[4] {
		t.Fatalf("equivocator did not send distinct per-neighbor values: %v", values)
	}
	// The 𝒵-CPA channel equivocates the same way.
	zvals := make(map[int]network.Value)
	for to, payloads := range sends {
		for _, p := range payloads {
			if vp, ok := p.(zcpa.ValuePayload); ok {
				zvals[to] = vp.X
			}
		}
	}
	if len(zvals) != 2 || zvals[0] == zvals[4] {
		t.Fatalf("equivocator 𝒵-CPA values not distinct: %v", zvals)
	}
}

func TestEquivocatorRewritesRelayedValues(t *testing.T) {
	in := pathsInstance(t)
	e := NewEquivocator(in, 1, "bad")
	out := make(map[int][]network.Payload)
	honest := core.ValueMsg{X: "1", P: graph.Path{0}}
	e.Round(1, []network.Message{{From: 0, To: 1, Payload: honest}}, func(to int, p network.Payload) {
		out[to] = append(out[to], p)
	})
	for to, payloads := range out {
		for _, p := range payloads {
			vm, ok := p.(core.ValueMsg)
			if !ok {
				continue
			}
			if vm.X == "1" {
				t.Fatalf("relayed value to %d not rewritten", to)
			}
			if !vm.P.Equal(graph.Path{0, 1}) {
				t.Fatalf("trail %v, want [0 1]", vm.P)
			}
		}
	}
}

func TestTrailForgerCyclesMutations(t *testing.T) {
	in := pathsInstance(t)
	f := NewTrailForger(in, 1, "bad")
	msg := core.ValueMsg{X: "1", P: graph.Path{0, 2}} // fake a longer trail
	var got []core.ValueMsg
	for i := 0; i < 3; i++ {
		vm, ok := f.mutate(msg)
		if !ok {
			t.Fatalf("mutation %d skipped", i)
		}
		got = append(got, vm)
	}
	if got[0].X != "bad" || !got[0].P.Equal(graph.Path{0, 2, 1}) {
		t.Fatalf("mode 0 = %+v, want forged value on honest trail", got[0])
	}
	if got[1].X != "1" || !got[1].P.Equal(graph.Path{0, 1}) {
		t.Fatalf("mode 1 = %+v, want truncated trail", got[1])
	}
	if got[2].X != "1" || !got[2].P.Equal(graph.Path{0, 2, 1}) {
		t.Fatalf("mode 2 = %+v, want dealer splice", got[2])
	}
	// A splice that would duplicate the dealer is skipped, not emitted.
	f.n = 2
	if _, ok := f.mutate(core.ValueMsg{X: "1", P: graph.Path{0}}); ok {
		t.Fatal("degenerate splice was not skipped")
	}
}

func TestViewLiarAnnouncesContestedVersions(t *testing.T) {
	in := pathsInstance(t)
	l := NewViewLiar(in, 2)
	sends := initSends(l)
	self := make(map[string]bool)
	ghosts := 0
	for _, payloads := range sends {
		for _, p := range payloads {
			im, ok := p.(core.InfoMsg)
			if !ok {
				t.Fatalf("view liar sent a non-type-2 payload: %T", p)
			}
			if im.Info.Node == 2 {
				self[im.Info.VersionKey()] = true
			} else {
				ghosts++
				if in.G.HasNode(im.Info.Node) {
					t.Fatalf("ghost claim reuses real node %d", im.Info.Node)
				}
			}
		}
	}
	if len(self) != 2 {
		t.Fatalf("want 2 contested self versions, got %d", len(self))
	}
	if ghosts == 0 {
		t.Fatal("no fictitious-node claim announced")
	}
}

func TestEclipserRelaysOnlyAwayFromReceiver(t *testing.T) {
	// Line 0–1–2–3–4 with receiver 4: the eclipser at 2 may talk to 1
	// (farther from R) but not to 3 (closer).
	g := gen.Line(5)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(2)), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEclipser(in, 2)
	if e.allowed.Contains(3) || !e.allowed.Contains(1) {
		t.Fatalf("allowed = %v, want {1}", e.allowed)
	}
	out := make(map[int]int)
	msg := core.ValueMsg{X: "1", P: graph.Path{0, 1}}
	e.Round(1, []network.Message{{From: 1, To: 2, Payload: msg}}, func(to int, _ network.Payload) {
		out[to]++
	})
	if out[3] != 0 || out[1] == 0 {
		t.Fatalf("eclipser sends = %v, want traffic to 1 only", out)
	}
	// 𝒵-CPA payloads are forwarded once per distinct key.
	vp := zcpa.ValuePayload{X: "1"}
	sent := 0
	for i := 0; i < 3; i++ {
		e.Round(2+i, []network.Message{{From: 1, To: 2, Payload: vp}}, func(int, network.Payload) {
			sent++
		})
	}
	if sent != 1 {
		t.Fatalf("𝒵-CPA payload forwarded %d times, want 1", sent)
	}
}

func TestReplayerBoundedOnRing(t *testing.T) {
	// Regression: two adjacent Replayers used to re-echo each other's echoes
	// forever, so a triangle with one initial message never quiesced. With
	// per-payload dedup the whole run is exactly 5 sends: the ping, plus
	// each Replayer echoing the distinct payload to its two neighbors once.
	g := gen.Ring(3)
	procs := map[int]network.Process{
		0: &pinger{to: 1, p: ping("x")},
		1: &Replayer{Neighbors: nodeset.Of(0, 2)},
		2: &Replayer{Neighbors: nodeset.Of(0, 1)},
	}
	res := run(t, g, procs, 12)
	if res.Metrics.MessagesSent != 5 {
		t.Fatalf("ring of replayers sent %d messages, want 5", res.Metrics.MessagesSent)
	}
}

func TestSpammerBitAccounting(t *testing.T) {
	// The payload's declared size must track its canonical encoding, not a
	// hard-coded constant: different field widths encode to different sizes.
	small := NoisePayload{From: 1, Round: 0, Seq: 0}
	big := NoisePayload{From: 123456, Round: 7890, Seq: 42}
	for _, p := range []NoisePayload{small, big} {
		if got, want := p.BitSize(), 8*len(p.Key()); got != want {
			t.Fatalf("BitSize(%s) = %d, want %d", p.Key(), got, want)
		}
	}
	if small.BitSize() == big.BitSize() {
		t.Fatal("distinct encodings report identical sizes; accounting is still hard-coded")
	}
}

func TestProtocolAwareStrategiesStayAdmissible(t *testing.T) {
	// Every trail a strategy emits must end at the corrupted node itself:
	// the engine's authenticated channels make any other tail undeliverable,
	// and Theorem 4's safety argument relies on it.
	in := pathsInstance(t)
	for _, name := range []string{EquivocatorName, PathForgerName, ViewLiarName, EclipserName} {
		s := MustGet(name)
		overlay := s.Build(in, nodeset.Of(2), "bad")
		p := overlay[2]
		check := func(to int, payload network.Payload) {
			var trail graph.Path
			switch m := payload.(type) {
			case core.ValueMsg:
				trail = m.P
			case core.InfoMsg:
				trail = m.P
			default:
				return
			}
			if len(trail) == 0 || trail.Tail() != 2 {
				t.Fatalf("%s emitted a trail not ending at the attacker: %v", name, trail)
			}
		}
		p.Init(check)
		p.Round(1, []network.Message{
			{From: 0, To: 2, Payload: core.ValueMsg{X: "1", P: graph.Path{0}}},
			{From: 0, To: 2, Payload: core.InfoMsg{Info: core.NodeInfo{Node: 0, View: in.Gamma.Of(0), Z: adversary.Restricted{Domain: nodeset.Of(0), Structure: adversary.Trivial()}}, P: graph.Path{0}}},
		}, check)
	}
}

// TestNoStrategyExtendsInadmissibleTrails: every registered strategy relays
// through Protocol 1's admission check, so none ever sends on an inbound
// trail that is empty, contains the corrupted node or does not end at its
// sender, extended by its own node.
func TestNoStrategyExtendsInadmissibleTrails(t *testing.T) {
	in := pathsInstance(t)
	const c = 2 // neighbors 0 and 4
	claim := core.TrueInfo(in, 0)
	var inbox []network.Message
	forbidden := map[string]bool{}
	for _, bad := range []graph.Path{{1}, {c, 0}, {}} { // tail ≠ sender, contains c, empty
		inbox = append(inbox,
			network.Message{From: 0, To: c, Payload: core.ValueMsg{X: "1", P: bad}},
			network.Message{From: 0, To: c, Payload: core.InfoMsg{Info: claim, P: bad}})
		forbidden[fmt.Sprint(bad.Append(c))] = true
	}
	// The admissible control keeps the check from passing vacuously.
	control := graph.Path{0}
	inbox = append(inbox,
		network.Message{From: 0, To: c, Payload: core.ValueMsg{X: "1", P: control}},
		network.Message{From: 0, To: c, Payload: core.InfoMsg{Info: claim, P: control}})
	relayed := 0
	for _, s := range All() {
		p := s.Build(in, nodeset.Of(c), "bad")[c]
		p.Init(func(int, network.Payload) {})
		extended := false
		p.Round(1, inbox, func(_ int, payload network.Payload) {
			var trail graph.Path
			switch m := payload.(type) {
			case core.ValueMsg:
				trail = m.P
			case core.InfoMsg:
				trail = m.P
			default:
				return
			}
			if forbidden[fmt.Sprint(trail)] {
				t.Errorf("%s extended an inadmissible trail: sent %v", s.Name(), trail)
			}
			extended = extended || trail.Equal(control.Append(c))
		})
		if extended {
			relayed++
		}
	}
	if relayed == 0 {
		t.Fatal("no strategy relayed the admissible control")
	}
}

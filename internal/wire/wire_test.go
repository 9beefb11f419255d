package wire

import (
	"bytes"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// TestMain diverts node-child re-execs of this test binary into the node
// main loop before the testing framework parses flags. Every binary hosting
// the wire engine needs this hook.
func TestMain(m *testing.M) {
	if IsNode() {
		os.Exit(NodeMain())
	}
	os.Exit(m.Run())
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := actedBody{Round: 3, Sends: []wireSend{{To: 1, Payload: payloadEnvelope{Kind: "k", Data: []byte(`{"a":1}`), Key: "x", Bits: 8}}}, Decided: true, Decision: "v"}
	if err := writeFrame(&buf, frameActed, want); err != nil {
		t.Fatal(err)
	}
	ft, body, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameActed {
		t.Fatalf("frame type = %v, want acted", ft)
	}
	if !strings.Contains(string(body), `"decision":"v"`) {
		t.Fatalf("body %s missing decision", body)
	}
}

func TestFrameRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameBye, struct{}{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // corrupt the version byte
	if _, _, err := readFrame(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version mismatch", err)
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	g, err := graph.ParseEdgeList("0-1 1-2 0-2")
	if err != nil {
		t.Fatal(err)
	}
	z, err := adversary.NewRestricted(nodeset.Of(0, 1, 2), adversary.FromSlices([]int{1}, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	info := core.NodeInfo{Node: 1, View: g, Z: z}.Sealed()
	payloads := []network.Payload{
		core.NewValueMsg("hello", graph.Path{0, 1, 2}),
		core.NewValueMsg("", nil),
		core.NewInfoMsg(info, graph.Path{1, 2}),
		zcpa.ValuePayload{X: "v"},
		byzantine.NoisePayload{From: 3, Round: 2, Seq: 7},
	}
	for _, p := range payloads {
		env, err := encodePayload(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		if env.Key != p.Key() || env.Bits != p.BitSize() {
			t.Fatalf("%T envelope key/bits (%q, %d) != payload (%q, %d)", p, env.Key, env.Bits, p.Key(), p.BitSize())
		}
		got, err := decodePayload(env)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		if got.Key() != p.Key() {
			t.Fatalf("%T round-trip key %q != %q", p, got.Key(), p.Key())
		}
		if got.BitSize() != p.BitSize() {
			t.Fatalf("%T round-trip bits %d != %d", p, got.BitSize(), p.BitSize())
		}
	}
}

func TestPayloadCodecDetectsDrift(t *testing.T) {
	env, err := encodePayload(zcpa.ValuePayload{X: "v"})
	if err != nil {
		t.Fatal(err)
	}
	env.Key = "tampered"
	if _, err := decodePayload(env); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("err = %v, want key drift", err)
	}
}

func TestPayloadCodecRejectsUnknown(t *testing.T) {
	if _, err := encodePayload(opaquePayload{}); err == nil {
		t.Fatal("expected encode error for unknown payload type")
	}
	if _, err := decodePayload(payloadEnvelope{Kind: "no/such"}); err == nil {
		t.Fatal("expected decode error for unknown kind")
	}
}

type opaquePayload struct{}

func (opaquePayload) BitSize() int { return 1 }
func (opaquePayload) Key() string  { return "opaque" }

func TestEngineRegistered(t *testing.T) {
	eng, err := network.EngineByName(EngineWire)
	if err != nil {
		t.Fatal(err)
	}
	if eng != Engine {
		t.Fatalf("registry returned %v, want the wire engine", eng)
	}
	if Engine.Name() != "wire" {
		t.Fatalf("Name() = %q", Engine.Name())
	}
}

func TestWireRequiresBlueprint(t *testing.T) {
	in := mustFixture(t, feasibility.TriplePath, gen.AdHoc)
	if _, err := protocol.RunByName("pka", in, "x", protocol.Options{Engine: Engine}); err == nil || !strings.Contains(err.Error(), "Blueprint") {
		t.Fatalf("err = %v, want blueprint requirement", err)
	}
}

func TestWireRejectsScheduler(t *testing.T) {
	in := mustFixture(t, feasibility.TriplePath, gen.AdHoc)
	opts := protocol.Options{
		Engine:    Engine,
		Scheduler: network.SyncScheduler{},
		Blueprint: &network.Blueprint{Instance: specText(in, gen.AdHoc)},
	}
	if _, err := protocol.RunByName("pka", in, "x", opts); err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("err = %v, want scheduler rejection", err)
	}
}

func TestWireRejectsChurn(t *testing.T) {
	in := mustFixture(t, feasibility.TriplePath, gen.AdHoc)
	procs, err := core.Proto{}.Assemble(in, "x", protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = network.Run(network.Config{
		Graph:     in.G,
		Processes: procs,
		Engine:    Engine,
		Churn:     []network.ChurnEvent{{Round: 2, RemoveEdges: [][2]int{{0, 1}}}},
		Blueprint: &network.Blueprint{Instance: specText(in, gen.AdHoc), Protocol: "pka", Value: "x"},
	})
	if err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("err = %v, want churn rejection", err)
	}
}

func TestEngineOptionsDefaults(t *testing.T) {
	o := EngineOptions{}.withDefaults()
	if o.HandshakeTimeout != 30*time.Second || o.StepTimeout != 60*time.Second ||
		o.ByeTimeout != 2*time.Second || o.KillGrace != 5*time.Second {
		t.Fatalf("defaults = %+v", o)
	}
	// Partial overrides keep the rest at defaults.
	o = EngineOptions{StepTimeout: time.Second}.withDefaults()
	if o.StepTimeout != time.Second || o.HandshakeTimeout != 30*time.Second {
		t.Fatalf("partial override = %+v", o)
	}
}

// TestWireReapsChildrenOnMidRunDeath: when a child dies mid-run the
// coordinator must surface the failure as an error AND wait on every spawned
// child — a crashed run must not leave orphaned or zombie node processes.
func TestWireReapsChildrenOnMidRunDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	in := mustFixture(t, feasibility.TriplePath, gen.AdHoc)
	var pids []int
	testHookClusterReady = func(cl *cluster) {
		for _, nd := range cl.nodes {
			pids = append(pids, nd.cmd.Process.Pid)
		}
		// Kill the receiver's child; the next step with it must fail.
		_ = cl.nodes[in.Receiver].cmd.Process.Kill()
	}
	defer func() { testHookClusterReady = nil }()

	eng := NewEngine(EngineOptions{StepTimeout: 10 * time.Second, KillGrace: 2 * time.Second})
	opts := protocol.Options{
		Engine:    eng,
		Blueprint: &network.Blueprint{Instance: specText(in, gen.AdHoc)},
	}
	if _, err := protocol.RunByName("pka", in, "x", opts); err == nil {
		t.Fatal("run with a dead child reported success")
	}
	if len(pids) == 0 {
		t.Fatal("cluster-ready hook never fired")
	}
	// Every child has exited and been reaped: signal 0 must fail for each
	// pid. A zombie (exited but never waited on) still receives signal 0, so
	// this catches both orphans and missing Wait calls.
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("child pid %d still exists after the run (orphan or zombie)", pid)
		}
	}
}

// TestWireMatchesLockstep is the engine's core guarantee: for every covered
// protocol and attack, the wire run over real sockets produces the same
// decisions, the same transcript and reconciled metrics, byte-identical to
// the in-process lockstep run.
func TestWireMatchesLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	in := mustFixture(t, feasibility.TriplePath, gen.AdHoc)
	cases := []struct {
		name     string
		protocol string
		corrupt  []int
		attack   string
		forged   string
	}{
		{name: "pka-honest", protocol: "pka"},
		{name: "pka-silent", protocol: "pka", corrupt: []int{2}, attack: "silent"},
		{name: "pka-equivocator", protocol: "pka", corrupt: []int{1}, attack: "equivocator", forged: "bad"},
		{name: "pka-spammer", protocol: "pka", corrupt: []int{3}, attack: "spammer", forged: "bad"},
		{name: "zcpa-honest", protocol: "zcpa"},
		{name: "zcpa-silent", protocol: "zcpa", corrupt: []int{2}, attack: "silent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := runEngine(t, in, network.Lockstep, tc.protocol, tc.corrupt, tc.attack, tc.forged)
			b := runEngine(t, in, Engine, tc.protocol, tc.corrupt, tc.attack, tc.forged)
			av, aok := a.DecisionOf(in.Receiver)
			bv, bok := b.DecisionOf(in.Receiver)
			if av != bv || aok != bok {
				t.Errorf("receiver decision: lockstep %q/%v, wire %q/%v", av, aok, bv, bok)
			}
			if ak, bk := a.Transcript.Key(), b.Transcript.Key(); ak != bk {
				t.Errorf("transcripts differ:\nlockstep: %s\nwire:     %s", ak, bk)
			}
			if err := b.Metrics.Reconcile(); err != nil {
				t.Errorf("wire metrics: %v", err)
			}
			if a.Rounds != b.Rounds {
				t.Errorf("rounds: lockstep %d, wire %d", a.Rounds, b.Rounds)
			}
		})
	}
}

func runEngine(t *testing.T, in *instance.Instance, eng network.Engine, protoName string, corrupt []int, attack, forged string) *network.Result {
	t.Helper()
	opts := protocol.Options{
		Engine:           eng,
		RecordTranscript: true,
		Blueprint: &network.Blueprint{
			Instance: specText(in, gen.AdHoc),
			Corrupt:  corrupt,
			Attack:   attack,
			Forged:   forged,
		},
	}
	if len(corrupt) > 0 {
		opts.Corrupt = byzantine.MustGet(attack).Build(in, nodeset.Of(corrupt...), network.Value(forged))
	}
	res, err := protocol.RunByName(protoName, in, "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustFixture(t *testing.T, name string, level gen.Knowledge) *instance.Instance {
	t.Helper()
	for _, f := range feasibility.All() {
		if f.Name == name {
			return f.MustBuild(level)
		}
	}
	t.Fatalf("no fixture %q", name)
	return nil
}

func specText(in *instance.Instance, level gen.Knowledge) string {
	return cliutil.InstanceSpec{
		Graph:     in.G,
		Z:         in.Z,
		Knowledge: level,
		Dealer:    in.Dealer,
		Receiver:  in.Receiver,
	}.Format()
}

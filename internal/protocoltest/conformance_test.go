package protocoltest

import (
	"os"
	"testing"

	"rmt/internal/core"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/protocol"
	"rmt/internal/selfred"
	"rmt/internal/wire"
	"rmt/internal/zcpa"

	_ "rmt/internal/broadcast" // register the broadcast protocol
	_ "rmt/internal/ppa"       // register the PPA protocol
)

// TestMain diverts wire-engine node-child re-execs of this test binary into
// the node main loop; required by the wire-equivalence slice.
func TestMain(m *testing.M) {
	if wire.IsNode() {
		os.Exit(wire.NodeMain())
	}
	os.Exit(m.Run())
}

// TestConformanceRegistry runs the full battery against every protocol in
// the registry — PKA, 𝒵-CPA, PPA and broadcast — with no per-protocol
// wiring. A protocol added to the registry is picked up automatically,
// including the four-engine wire-equivalence slice over real sockets.
func TestConformanceRegistry(t *testing.T) {
	RunRegistry(t, Config{WireEngine: wire.Engine})
}

// The variants below exercise configurations the registry entries don't
// express on their own: alternate knowledge levels, a custom decider and a
// bounded horizon. Each is a protocol value of its own, unregistered, so
// the battery skips the wire slice for it.

// pkaFull is RMT-PKA at full knowledge: the battery reads the knowledge
// level from Caps.
type pkaFull struct{ core.Proto }

func (pkaFull) Name() string        { return "RMT-PKA-full" }
func (pkaFull) Caps() protocol.Caps { return protocol.Caps{NeedsFullKnowledge: true} }

func TestConformancePKAFullKnowledge(t *testing.T) {
	Run(t, pkaFull{}, Config{Trials: 25})
}

// zcpaPi is 𝒵-CPA deciding through the Π-simulating decider.
type zcpaPi struct{ zcpa.Proto }

func (zcpaPi) Name() string { return "Z-CPA+Pi" }

func (zcpaPi) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	opts.Decider = &selfred.PiDecider{LK: in.LocalKnowledge()}
	return zcpa.Proto{}.Assemble(in, xD, opts)
}

func TestConformanceZCPAWithPiDecider(t *testing.T) {
	Run(t, zcpaPi{}, Config{Trials: 25})
}

// horizonPKA is RMT-PKA with a horizon of 5, which covers both standard
// fixtures (the 5-line's single path has exactly 5 nodes), letting the
// honest-delivery, safety and engine slices all apply. Horizon-PKA is
// deliberately not tight (it trades liveness), so it implements no
// Solvable and the battery skips the tightness slice.
type horizonPKA struct{}

func (horizonPKA) Name() string        { return "Horizon-PKA" }
func (horizonPKA) Caps() protocol.Caps { return protocol.Caps{} }

func (horizonPKA) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	opts.Horizon = 5
	return core.Proto{}.Assemble(in, xD, opts)
}

func TestConformanceHorizonPKASafetyOnly(t *testing.T) {
	Run(t, horizonPKA{}, Config{})
}

package protocoltest

import (
	"os"
	"testing"

	"rmt/internal/core"
	"rmt/internal/gen"
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

func newPi(in *instance.Instance) zcpa.Decider {
	return &selfred.PiDecider{LK: in.LocalKnowledge()}
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
// bounded horizon.

func TestConformancePKAFullKnowledge(t *testing.T) {
	Run(t, Factory{
		Name: "RMT-PKA-full",
		NewProcesses: func(in *instance.Instance, xD network.Value, corrupt map[int]network.Process) map[int]network.Process {
			return core.NewProcesses(in, xD, corrupt, protocol.Options{})
		},
		Solvable:  core.Solvable,
		Knowledge: gen.FullKnowledge,
	}, Config{Trials: 25})
}

func TestConformanceZCPAWithPiDecider(t *testing.T) {
	Run(t, Factory{
		Name: "Z-CPA+Pi",
		NewProcesses: func(in *instance.Instance, xD network.Value, corrupt map[int]network.Process) map[int]network.Process {
			return zcpa.NewProcessesWithDecider(in, xD, corrupt, newPi(in))
		},
		Solvable:  zcpa.Solvable,
		Knowledge: gen.AdHoc,
	}, Config{Trials: 25})
}

func TestConformanceHorizonPKASafetyOnly(t *testing.T) {
	// Horizon-PKA is deliberately not tight (it trades liveness), so no
	// Solvable condition is given; a horizon of 5 covers both standard
	// fixtures (the 5-line's single path has exactly 5 nodes), letting the
	// honest-delivery, safety and engine slices all apply.
	Run(t, Factory{
		Name: "Horizon-PKA",
		NewProcesses: func(in *instance.Instance, xD network.Value, corrupt map[int]network.Process) map[int]network.Process {
			return core.NewProcesses(in, xD, corrupt, protocol.Options{Horizon: 5})
		},
		Knowledge: gen.AdHoc,
	}, Config{})
}

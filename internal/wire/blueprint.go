package wire

import (
	"fmt"

	"rmt/internal/cliutil"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/protocol"

	// The child rebuilds the run from registry names alone, so every
	// protocol package must have registered by the time NodeMain runs —
	// regardless of what else the host binary imports. core and zcpa are
	// already imported by the payload codec.
	_ "rmt/internal/broadcast"
	_ "rmt/internal/ppa"
)

// buildProcesses deterministically reconstructs the run's full process map
// from the pure-data blueprint: parse the instance spec, resolve the rest
// through cliutil.ResolveRun, as every front end does, and assemble. Every
// child executes this same construction (strategies are deterministic by
// contract), so the cluster-wide process map is consistent even though each
// child animates only its own node.
func buildProcesses(bp network.Blueprint) (map[int]network.Process, *instance.Instance, error) {
	if bp.Instance == "" {
		return nil, nil, fmt.Errorf("wire: blueprint has no instance spec")
	}
	spec, err := cliutil.ParseInstanceSpec(bp.Instance)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: blueprint instance: %w", err)
	}
	in, err := spec.Instance()
	if err != nil {
		return nil, nil, fmt.Errorf("wire: blueprint instance: %w", err)
	}
	run, err := cliutil.ResolveRun(bp, in)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: blueprint: %w", err)
	}
	opts, err := run.Options(protocol.Cell{})
	if err != nil {
		return nil, nil, fmt.Errorf("wire: blueprint: %w", err)
	}
	procs, err := run.Protocol.Assemble(in, network.Value(bp.Value), opts)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: assemble %s: %w", bp.Protocol, err)
	}
	return procs, in, nil
}

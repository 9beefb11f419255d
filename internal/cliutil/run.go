package cliutil

import (
	"fmt"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Run is a blueprint resolved against its instance: the protocol and
// strategy it names, its corruption set and its listening structure.
// rmtd's /v1/run, rmtsim, the wire engine and the conformance battery all
// build runs through ResolveRun, so they accept and reject the same run
// descriptions with the same errors.
type Run struct {
	Blueprint network.Blueprint
	Instance  *instance.Instance
	Protocol  protocol.Protocol
	Strategy  byzantine.Strategy
	Corrupt   nodeset.Set
	Listen    adversary.Structure
}

// ResolveRun checks bp against in: the protocol and the attack strategy
// must be registered (an empty attack means silent), every corrupt ID must
// be a node of G, the corruption set must be admissible, and the listening
// structure must parse. Every error it returns is a usage error. A
// protocol's own capability check runs later, at assembly, and fails with
// a protocol.CapsError.
func ResolveRun(bp network.Blueprint, in *instance.Instance) (*Run, error) {
	p, ok := protocol.Get(bp.Protocol)
	if !ok {
		return nil, protocol.UnknownError(bp.Protocol)
	}
	attack := bp.Attack
	if attack == "" {
		attack = byzantine.SilentName
	}
	strat, ok := byzantine.Get(attack)
	if !ok {
		return nil, byzantine.UnknownError(attack)
	}
	// Check membership before building the set: nodeset.Of panics on a
	// negative ID and sizes its words by the largest one.
	for _, id := range bp.Corrupt {
		if !in.G.HasNode(id) {
			return nil, fmt.Errorf("corrupt node %d is not a node of G", id)
		}
	}
	corrupt := nodeset.Of(bp.Corrupt...)
	if !in.Admissible(corrupt) {
		return nil, fmt.Errorf("corruption set %v is not admissible under %v", corrupt, in.Z)
	}
	listen, err := ParseStructure(bp.Listen)
	if err != nil {
		return nil, fmt.Errorf("listening structure: %w", err)
	}
	return &Run{Blueprint: bp, Instance: in, Protocol: p, Strategy: strat, Corrupt: corrupt, Listen: listen}, nil
}

// Options returns the options for one run of r under cell: the cell's
// fresh scheduler and message adversary, a fresh strategy overlay
// (strategy processes keep per-run state), the listening structure and
// the share seed, and the blueprint itself when it carries instance text,
// for engines that rebuild the run elsewhere. Callers add the run's own
// fields (tracers, round bound, context).
func (r *Run) Options(cell protocol.Cell) (protocol.Options, error) {
	opts, err := cell.Options()
	if err != nil {
		return opts, err
	}
	if !r.Corrupt.IsEmpty() {
		opts.Corrupt = r.Strategy.Build(r.Instance, r.Corrupt, network.Value(r.Blueprint.Forged))
	}
	opts.Listen, opts.Seed = r.Listen, r.Blueprint.Seed
	if r.Blueprint.Instance != "" {
		bp := r.Blueprint
		opts.Blueprint = &bp
	}
	return opts, nil
}

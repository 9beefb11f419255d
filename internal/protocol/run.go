package protocol

import (
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// Build assembles the standard protocol process map: honest(v) for every
// node of g, then the corrupt overlay — except on protected nodes, which
// always run their honest process. This is the one corruption-wiring path
// shared by every registered protocol.
func Build(g *graph.Graph, protected nodeset.Set, corrupt map[int]network.Process, honest func(v int) network.Process) map[int]network.Process {
	procs := make(map[int]network.Process, g.NumNodes())
	g.Nodes().ForEach(func(v int) bool {
		procs[v] = honest(v)
		return true
	})
	for v, proc := range corrupt {
		if protected.Contains(v) {
			continue
		}
		procs[v] = proc
	}
	return procs
}

// Run assembles and executes p on the instance with dealer value xD. For
// receiver-decides protocols the run stops as soon as the receiver decides;
// AllDecide protocols run until quiescence so every player can decide.
func Run(p Protocol, in *instance.Instance, xD network.Value, opts Options) (*network.Result, error) {
	procs, err := p.Assemble(in, xD, opts)
	if err != nil {
		return nil, err
	}
	cfg := network.Config{
		Graph:            in.G,
		Processes:        procs,
		Engine:           opts.Engine,
		Scheduler:        opts.Scheduler,
		MsgAdversary:     opts.MsgAdversary,
		RecordTranscript: opts.RecordTranscript,
		MaxRounds:        opts.MaxRounds,
		Tracers:          opts.Tracers,
		Context:          opts.Context,
	}
	if opts.Blueprint != nil {
		bp := *opts.Blueprint
		if bp.Protocol == "" {
			bp.Protocol = p.Name()
		}
		if bp.Value == "" {
			bp.Value = string(xD)
		}
		if bp.Seed == 0 {
			bp.Seed = opts.Seed
		}
		cfg.Blueprint = &bp
	}
	if !p.Caps().AllDecide {
		cfg.StopEarly = func(d map[int]network.Value) bool {
			_, ok := d[in.Receiver]
			return ok
		}
	}
	return network.Run(cfg)
}

// RunByName resolves name in the registry and runs it.
func RunByName(name string, in *instance.Instance, xD network.Value, opts Options) (*network.Result, error) {
	p, ok := Get(name)
	if !ok {
		return nil, UnknownError(name)
	}
	return Run(p, in, xD, opts)
}

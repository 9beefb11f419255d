package attack

import (
	"fmt"
	"slices"
	"sort"

	"rmt/internal/byzantine"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/zcpa"
)

// This file is the sweep's teeth check: a deliberately UNSAFE decision rule
// run through the exact same safety oracle as the real protocols. The
// gullible receiver decides the lexicographically smallest candidate value
// it has seen as soon as any candidate exists — no cover check, no
// certification — so a single value-forging corrupted relay fools it. If
// the oracle does not flag it, the sweep's zero-violation claim about the
// real protocols is vacuous and Report.Err fails.

// CanaryName names the unsafe decision rule in reports and traces. The
// protocol is deliberately NOT registered in internal/protocol's registry:
// it must never leak into conformance batteries or the CLI.
const CanaryName = "canary-gullible"

// gullibleReceiver accepts any type-1 message with a plausibly admissible
// trail, or any bare 𝒵-CPA value, as a candidate — and decides the smallest
// candidate at the end of the first round that produced one.
type gullibleReceiver struct {
	id      int
	decided bool
	value   network.Value
}

func (r *gullibleReceiver) Init(network.Outbox) {}

func (r *gullibleReceiver) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	if r.decided {
		return false
	}
	var candidates []network.Value
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case core.ValueMsg:
			if len(p.P) == 0 || p.P.Contains(r.id) || p.P.Tail() != m.From {
				continue
			}
			candidates = append(candidates, p.X)
		case zcpa.ValuePayload:
			candidates = append(candidates, p.X)
		}
	}
	if len(candidates) == 0 {
		return true
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	r.decided, r.value = true, candidates[0]
	return false
}

func (r *gullibleReceiver) Decision() (network.Value, bool) { return r.value, r.decided }

// canaryProto wires the gullible receiver into an otherwise honest RMT-PKA
// player set: RMT-PKA's own assembly with the receiver swapped out. It
// implements protocol.Protocol so it runs through the very same
// protocol.Run path as the audited protocols, but is never registered.
type canaryProto struct{}

func (canaryProto) Name() string        { return CanaryName }
func (canaryProto) Caps() protocol.Caps { return protocol.Caps{} }

func (canaryProto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	procs := core.NewProcesses(in, xD, opts.Corrupt, opts)
	procs[in.Receiver] = &gullibleReceiver{id: in.Receiver}
	return procs, nil
}

// canaryFixture is the deterministic teeth fixture: three disjoint one-hop
// relays between D=0 and R=4 with singleton corruptions. Corrupting relay 1
// with any value-forging strategy puts a forged candidate in front of the
// gullible receiver no later than the honest value, and ForgedValue sorts
// below x_D, so the receiver reliably decides wrong.
func canaryFixture() (*instance.Instance, nodeset.Set, error) {
	g, d, r := gen.DisjointPaths(3, 1)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(1, 2, 3)), d, r)
	if err != nil {
		return nil, nodeset.Empty(), err
	}
	return in, nodeset.Of(1), nil
}

// MBRBCanaryName names the unsafe MBRB decision rule in reports and traces.
// Like the gullible receiver, it is deliberately NOT registered.
const MBRBCanaryName = "canary-mbrb-gullible"

// gullibleMBRBReceiver drops MBRB's one real safeguard — counting READY
// votes from DISTINCT senders against the 2t+d+1 delivery quorum — and
// delivers the lexicographically smallest value it has seen in any single
// READY (or forged dealer INIT impersonation is not even needed: one
// corrupted player's ready suffices). The ready-forger strategy fools it on
// every run; honest runs still decide x_D, so only forging strategies flag.
type gullibleMBRBReceiver struct {
	id      int
	dealer  int
	decided bool
	value   network.Value
}

func (r *gullibleMBRBReceiver) Init(network.Outbox) {}

func (r *gullibleMBRBReceiver) Round(_ int, inbox []network.Message, _ network.Outbox) bool {
	if r.decided {
		return false
	}
	var candidates []network.Value
	for _, m := range inbox {
		p, ok := m.Payload.(mbrb.Msg)
		if !ok || p.Phase != mbrb.PhaseReady {
			continue
		}
		candidates = append(candidates, p.X)
	}
	if len(candidates) == 0 {
		return true
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	r.decided, r.value = true, candidates[0]
	return false
}

func (r *gullibleMBRBReceiver) Decision() (network.Value, bool) { return r.value, r.decided }

// mbrbCanaryProto wires the gullible MBRB receiver into an otherwise honest
// mbrb player set (honest players echo and ready normally, so the receiver
// sees real readys too — the forged one just sorts first).
type mbrbCanaryProto struct{}

func (mbrbCanaryProto) Name() string        { return MBRBCanaryName }
func (mbrbCanaryProto) Caps() protocol.Caps { return protocol.Caps{CompleteGraph: true} }

func (mbrbCanaryProto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	q := mbrb.NewQuorums(in.N(), mbrb.Threshold(in), opts.MABudget)
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), opts.Corrupt, func(v int) network.Process {
		if v == in.Receiver {
			return &gullibleMBRBReceiver{id: v, dealer: in.Dealer}
		}
		return mbrb.NewPlayer(in, v, xD, q)
	}), nil
}

// mbrbCanaryFixture is the MBRB teeth fixture: K5 with singleton
// corruptions over the interior, D=0, R=4, corrupting player 1. n=5, t=1,
// d=0 satisfies n > 3t+2d, so the honest players reach their quorums; the
// gullible receiver decides off the first ready it sees — the corrupted
// player's forged one.
func mbrbCanaryFixture() (*instance.Instance, nodeset.Set, error) {
	g := gen.Complete(5)
	in, err := instance.AdHoc(g, gen.Singletons(nodeset.Of(1, 2, 3)), 0, 4)
	if err != nil {
		return nil, nodeset.Empty(), err
	}
	return in, nodeset.Of(1), nil
}

// canaries is the safety oracle's teeth check: one row per deliberately
// unsafe decision rule, each run on its fixture under every configured
// strategy through the same cells and oracle as the audited protocols.
// Every run is traced to cfg.Out, so the JSONL stream always contains fully
// traced attacks. A new family's canary is one more row.
var canaries = []struct {
	proto   protocol.Protocol
	fixture func() (*instance.Instance, nodeset.Set, error)
	// always is a strategy the row runs even when the sweep is narrowed to
	// others: the one stock strategy that speaks the rule's message type,
	// without which a narrowed sweep would fail the teeth check vacuously.
	always string
	// suppress adds one run per configured suppression budget under the
	// targeted policy, which needs no seed, so a flagged run replays
	// without bookkeeping: a receiver that ignores distinct-sender quorums
	// must be caught with and without message loss.
	suppress bool
}{
	{proto: canaryProto{}, fixture: canaryFixture},
	{proto: mbrbCanaryProto{}, fixture: mbrbCanaryFixture, always: byzantine.ReadyForgerName, suppress: true},
}

// runCanaries runs every canary row and tallies, per canary, how many runs
// the Theorem-4 oracle flags.
func runCanaries(cfg Config, rep *Report) error {
	for _, row := range canaries {
		name := row.proto.Name()
		in, corrupt, err := row.fixture()
		if err != nil {
			return fmt.Errorf("attack: %s fixture: %w", name, err)
		}
		cells := []cell{{Cell: protocol.Cell{Engine: network.Lockstep}, corrupt: corrupt}}
		if row.suppress {
			for _, d := range cfg.MABudgets {
				cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Lockstep, MAPolicy: network.MATargeted, MABudget: d}, corrupt: corrupt})
			}
		}
		strategies := cfg.strategies()
		if row.always != "" && !slices.Contains(strategies, row.always) {
			strategies = append(slices.Clip(strategies), row.always)
		}
		var tally CanaryTally
		for _, stratName := range strategies {
			strat, ok := byzantine.Get(stratName)
			if !ok {
				return byzantine.UnknownError(stratName)
			}
			for _, c := range cells {
				res, _, err := c.run(cfg, row.proto, in, strat, cfg.Out)
				if err != nil {
					return fmt.Errorf("attack: %s under %s on %s: %w", name, stratName, c.label(), err)
				}
				tally.Runs++
				if len(unsafeDecisions(in, c.corrupt, res)) > 0 {
					tally.Flagged++
				}
			}
		}
		rep.Canaries[name] = tally
	}
	return nil
}

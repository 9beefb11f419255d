// Package protocol is the unified protocol runtime: a registry of the
// repository's six executable protocols (RMT-PKA, 𝒵-CPA, PPA, 𝒵-CPA
// broadcast, MBRB and SMT) behind one Protocol interface, one Options
// struct, and one way to start a run: Run, RunByName, or Resilient for the
// silent-adversary loop. No protocol package keeps a Run of its own.
//
// Protocol packages register themselves at init time (like database/sql
// drivers), so importing a protocol package makes it resolvable by name;
// every consumer — the rmt.go wrappers, rmtsim, rmtbench, internal/eval,
// the conformance battery — resolves protocols through the registry instead
// of carrying its own switch. Adding a protocol variant is a registry entry,
// not a new wiring path. A run's engine, schedule and message adversary
// come from a Cell, which builds the single-use scheduler and adversary
// fresh for every run.
//
// The layering is deliberate: this package imports only the instance and
// network substrates, and the protocol packages import it — never the other
// way around — so registration can never form an import cycle.
package protocol

import (
	"context"

	"rmt/internal/adversary"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// MembershipOracle answers 𝒵-CPA's membership check: whether a set of
// same-value reporting neighbors of v is an admissible corruption set in
// Z_v. This is the protocol-scheme subroutine of Definition 8 — abstracted
// so the Section 5 self-reduction can answer it by simulating Π runs
// (internal/selfred) while normal runs use the direct antichain check.
type MembershipOracle interface {
	Member(v int, reporters nodeset.Set) bool
}

// Decider generalizes the decision subroutine of certified-propagation
// protocols: given the partition of a player's same-value reporter classes,
// it returns the certified value, if any. It is the fully general form of
// the Definition 8 hook; internal/zcpa's WrapOracle adapts a
// MembershipOracle into the textbook rule. The classes are the player's
// own Tally, in ascending value order; Decide reads them during the call
// only (see Tally).
type Decider interface {
	Decide(v int, classes *Tally) (network.Value, bool)
}

// Options is the unified run-option set shared by every registered
// protocol. Each protocol reads the fields it understands and ignores the
// rest, so option values flow unchanged through every layer. Build the
// engine, Scheduler, MsgAdversary and MABudget fields with Cell.Options.
type Options struct {
	// Engine selects the execution engine (nil = lockstep); resolve one
	// from the registry with network.EngineByName.
	Engine network.Engine
	// Scheduler is the async engine's delivery policy (nil = the zero-fault
	// SyncScheduler). Ignored by the synchronous engines. Schedulers are
	// single-use: one run's options hold one, never a harness.
	Scheduler network.Scheduler
	// MsgAdversary is the message-suppression policy (nil = none); see
	// network.MessageAdversary. Honored by every in-process engine; the
	// wire engine rejects it. Adversaries are single-use, like schedulers.
	MsgAdversary network.MessageAdversary
	// MABudget is d, the per-broadcast suppression budget the protocol
	// should provision its quorums for. It parameterizes the n > 3t + 2d
	// protocol family: MBRB reads it to size its delivery quorum; protocols
	// predating the message-adversary model ignore it. It is a promise
	// about MsgAdversary, not enforced against it — running with a budget
	// larger than provisioned costs liveness, never safety.
	// Read by: mbrb.
	MABudget int
	// RecordTranscript enables full message recording (memory-heavy).
	RecordTranscript bool
	// MaxRounds bounds the execution; 0 uses the engine default.
	MaxRounds int
	// Corrupt replaces the listed nodes' processes with the supplied
	// Byzantine implementations. Protocols never let their protected nodes
	// (dealer, receiver) be replaced.
	Corrupt map[int]network.Process
	// Tracers are extra run observers (see network.Tracer).
	Tracers []network.Tracer
	// Blueprint is the pure-data run recipe required by engines that
	// execute players in other processes (the wire engine); Run fills in
	// the protocol name and dealer value when left empty. In-process
	// engines ignore it.
	Blueprint *network.Blueprint

	// Horizon, when positive, runs the Horizon-PKA ablation: relays drop
	// trails that cannot complete into a D–R path of at most Horizon
	// nodes, and the receiver evaluates the full-set rule on the subgraph
	// of G_M spanned by such bounded paths. Safety is preserved (the
	// Theorem 4 argument is parametric in the decision graph); liveness
	// shrinks to instances whose bounded-path subgraph has no RMT-cut and
	// no longer combination paths. Experiment E10 quantifies the
	// message-complexity savings against the solvability loss.
	// Read by: pka.
	Horizon int
	// Listen is the adversary's listening structure ℒ: the monotone family
	// of node sets it may eavesdrop on (Dowden's fully generalised
	// adversary; see internal/adversary). The zero value means "no
	// listening" ({∅}). Privacy-aware protocols provision their share
	// routing so every admissible listening set misses at least one share;
	// wire-engine runs carry the same family in Blueprint.Listen.
	// Read by: smt.
	Listen adversary.Structure
	// Seed keys deterministic share/pad generation for privacy-aware
	// protocols: equal (instance, value, Listen, Seed) runs produce
	// byte-identical transcripts, per the repo's seeded-determinism
	// contract. Read by: smt.
	Seed int64
	// Decider overrides the decision subroutine (nil = the textbook rule
	// over the direct membership check against the instance's local
	// structures). Read by: zcpa, broadcast.
	Decider Decider
	// Context, when non-nil, stops the run at the first round boundary
	// after it is done, with its error (see network.Config.Context). The
	// RMT-PKA receiver also polls it once per candidate of its search.
	Context context.Context
}

// Caps declares a protocol's capabilities and requirements to generic
// consumers (the conformance battery, the CLI, the runner).
type Caps struct {
	// NeedsFullKnowledge is set by protocols designed for the
	// full-topology-knowledge model (PPA); generic harnesses then build
	// full-knowledge instances for it.
	NeedsFullKnowledge bool
	// AllDecide is set by broadcast-style protocols in which every honest
	// player must decide, not just the designated receiver; the runner
	// then does not stop early on the receiver's decision.
	AllDecide bool
	// CompleteGraph is set by protocols designed for fully connected
	// networks (MBRB): their quorum arithmetic counts processes, not paths,
	// so generic harnesses draw complete-graph instances for them instead
	// of the sparse path fixtures.
	CompleteGraph bool
	// HonestPaths is set by protocols that route exclusively over
	// corruption-free D–R paths (SMT): they reject instances whose
	// corruptible ground separates dealer from receiver, so generic
	// harnesses draw fixtures that keep part of the interior honest instead
	// of the fully-corruptible path fixtures.
	HonestPaths bool
}

// Protocol is one registered executable protocol.
type Protocol interface {
	// Name is the registry key ("pka", "zcpa", ...).
	Name() string
	// Caps declares capabilities and requirements.
	Caps() Caps
	// Assemble builds the full process map for a run on the instance with
	// dealer value xD, honoring the options (including the Corrupt
	// overlay).
	Assemble(in *instance.Instance, xD network.Value, opts Options) (map[int]network.Process, error)
}

// Feasibility is optionally implemented by protocols with a tight
// solvability characterization; the conformance battery then asserts
// Solvable ⇔ operational resilience.
type Feasibility interface {
	Solvable(in *instance.Instance) bool
}

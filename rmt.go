// Package rmt is a library for Perfectly Reliable Message Transmission
// (RMT) in synchronous networks under general (Hirt–Maurer) Byzantine
// adversaries and partial topology knowledge, implementing
//
//	A. Pagourtzis, G. Panagiotakos, D. Sakavalas.
//	"Reliable Message Transmission under Partial Knowledge and General
//	Adversaries" (brief announcement at PODC 2016).
//
// The library provides:
//
//   - RMT-PKA, the paper's unique protocol for the partial knowledge model
//     (RunProtocol with ProtocolPKA), with its tight feasibility
//     characterization via RMT-cuts (SolvablePKA, FindRMTCut);
//   - 𝒵-CPA for ad hoc networks (ProtocolZCPA) with the RMT 𝒵-pp cut
//     characterization (SolvableZCPA, FindZppCut);
//   - the PPA full-knowledge baseline (ProtocolPPA) with the 𝒵-pair cut
//     condition (FindPairCut);
//   - the ⊕ joint-view operation on adversary structures (JoinViews) and
//     the partial-knowledge machinery (view functions, local structures);
//   - Section 5's self-reduction: protocol Π on basic instances and the
//     Decision Protocol plugged into 𝒵-CPA as a decider (selfred types);
//   - a network simulator with deterministic lockstep, goroutine and
//     seeded-async engines (NewScheduler), a Byzantine strategy zoo, and an
//     experiment harness regenerating every table in EXPERIMENTS.md.
//
// # Quick start
//
//	g, _ := rmt.ParseEdgeList("0-1 0-2 0-3 1-4 2-4 3-4")
//	z := rmt.StructureOf([]int{1}, []int{2}, []int{3})
//	in, _ := rmt.NewAdHocInstance(g, z, 0, 4)
//	if rmt.SolvablePKA(in) {
//		res, _ := rmt.RunProtocol(rmt.ProtocolPKA, in, "attack at dawn", nil, rmt.RunOptions{})
//		x, ok := res.DecisionOf(4) // "attack at dawn", true
//		_ = x
//		_ = ok
//	}
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package rmt

import (
	"io"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/core"
	"rmt/internal/graph"
	"rmt/internal/instance"
	_ "rmt/internal/mbrb" // registers the "mbrb" protocol
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/ppa"
	"rmt/internal/protocol"
	"rmt/internal/selfred"
	_ "rmt/internal/smt" // registers the "smt" protocol
	"rmt/internal/view"
	"rmt/internal/zcpa"
)

// Core model types, aliased from the implementation packages so that public
// and internal code share one set of values.
type (
	// Graph is an undirected network topology over integer node IDs.
	Graph = graph.Graph
	// Path is a simple path as a node sequence.
	Path = graph.Path
	// Set is a set of node IDs.
	Set = nodeset.Set
	// Structure is a monotone adversary structure (antichain form).
	Structure = adversary.Structure
	// Restricted is a structure together with the node set it is
	// restricted to — the currency of the ⊕ joint-view operation.
	Restricted = adversary.Restricted
	// ViewFunction is a partial-knowledge view function γ.
	ViewFunction = view.Function
	// Instance is the RMT problem tuple (G, 𝒵, γ, D, R).
	Instance = instance.Instance
	// Value is an element of the message space X.
	Value = network.Value
	// Result summarizes a protocol run.
	Result = network.Result
	// Process is a player state machine; corrupted players are arbitrary
	// Processes.
	Process = network.Process
	// Engine is the execution-engine contract; resolve one by registry
	// name with ParseEngine (lockstep, goroutine, async, wire).
	Engine = network.Engine
	// Scheduler is the async engine's delivery policy: it assigns each
	// accepted send a delivery round (see NewScheduler for the stock
	// policies); install via RunOptions.Scheduler.
	Scheduler = network.Scheduler
	// Blueprint is the pure-data run recipe required by engines that
	// execute players in other OS processes (the wire engine); install via
	// RunOptions.Blueprint.
	Blueprint = network.Blueprint
	// RMTCut witnesses the partial-knowledge impossibility condition.
	RMTCut = core.RMTCut
	// ZppCut witnesses the ad hoc impossibility condition.
	ZppCut = zcpa.ZppCut
	// Delta is a batch of topology edits applicable to an Instance; see
	// ApplyDelta and ChainKey for the churn machinery.
	Delta = instance.Delta
	// IncrementalRMTCut maintains an RMT-cut verdict across topology
	// revisions, re-verifying the previous witness before re-enumerating.
	IncrementalRMTCut = core.IncrementalCut
	// IncrementalZppCut is the ad hoc counterpart of IncrementalRMTCut.
	IncrementalZppCut = zcpa.IncrementalCut
	// RunOptions is the unified option set of the protocol runtime, shared
	// by every registered protocol (see Protocols, RunProtocol).
	RunOptions = protocol.Options
	// Tracer observes a run event-by-event (sends, drops, deliveries,
	// decisions, halts, round boundaries); install via RunOptions.Tracers.
	Tracer = network.Tracer
	// JSONLTracer streams run events as JSON lines (see NewJSONLTracer).
	JSONLTracer = network.JSONLTracer
	// Basic is a Figure-1 basic instance for the Section 5 machinery.
	Basic = selfred.Basic
	// PiDecider is the Theorem 9 Decision Protocol as a 𝒵-CPA decider.
	PiDecider = selfred.PiDecider
)

// Engines. The engine layer is a registry (see Engines, ParseEngine): these
// vars are the built-ins, and importing rmt/internal/wire adds the
// real-socket "wire" engine.
var (
	Lockstep  = network.Lockstep
	Goroutine = network.Goroutine
	Async     = network.Async
)

// ParseEngine resolves an engine by registry name ("lockstep", "goroutine",
// "async", plus any engine registered by imported packages, such as "wire").
func ParseEngine(name string) (Engine, error) { return network.EngineByName(name) }

// Engines returns the names of every registered engine, sorted.
func Engines() []string { return network.EngineNames() }

// SchedulerNames returns the stock async-schedule names, sorted: "sync"
// (zero-fault), "random" (seeded delay), "fifo" (seeded delay, FIFO per
// link), "lifo" (last-writer-first reordering), "partition"
// (partition-then-heal).
func SchedulerNames() []string { return network.SchedulerNames() }

// NewScheduler builds the named stock scheduler. Every random choice flows
// from the seed, so equal (name, seed) pairs reproduce a run byte-for-byte.
// Schedulers are single-use: build a fresh one per run.
func NewScheduler(name string, seed int64) (Scheduler, error) {
	return network.NewScheduler(name, seed)
}

// NewGraph returns an empty topology; add channels with AddEdge.
func NewGraph() *Graph { return graph.New() }

// ParseEdgeList builds a topology from "0-1, 1-2; 7"-style text (bare
// integers add isolated nodes).
func ParseEdgeList(s string) (*Graph, error) { return graph.ParseEdgeList(s) }

// NodeSet builds a Set from IDs.
func NodeSet(ids ...int) Set { return nodeset.Of(ids...) }

// StructureOf builds an adversary structure from its (not necessarily
// maximal) corruption sets, given as ID slices.
func StructureOf(sets ...[]int) Structure { return adversary.FromSlices(sets...) }

// NoCorruption returns the structure {∅}.
func NoCorruption() Structure { return adversary.Trivial() }

// Threshold returns the global threshold structure: any ≤ t nodes of the
// universe.
func Threshold(universe Set, t int) Structure { return adversary.GlobalThreshold(universe, t) }

// TLocal returns Koo's t-locally bounded structure on g (≤ t corruptions in
// every neighborhood). Exponential construction; intended for small graphs.
func TLocal(g *Graph, t int) Structure {
	return adversary.TLocal(g.Nodes(), func(v int) Set { return g.Neighbors(v) }, t)
}

// AdHocView returns the ad hoc view function (neighborhood stars).
func AdHocView(g *Graph) ViewFunction { return view.AdHoc(g) }

// RadiusView returns the radius-k induced-ball view function.
func RadiusView(g *Graph, k int) ViewFunction { return view.Radius(g, k) }

// FullView returns the full-knowledge view function.
func FullView(g *Graph) ViewFunction { return view.Full(g) }

// NewInstance validates and assembles an RMT instance.
func NewInstance(g *Graph, z Structure, gamma ViewFunction, dealer, receiver int) (*Instance, error) {
	return instance.New(g, z, gamma, dealer, receiver)
}

// NewAdHocInstance assembles an instance in the ad hoc model.
func NewAdHocInstance(g *Graph, z Structure, dealer, receiver int) (*Instance, error) {
	return instance.AdHoc(g, z, dealer, receiver)
}

// JoinViews computes the ⊕ joint-view of restricted adversary structures
// (Definition 2): the maximal structure consistent with all of them.
func JoinViews(rs ...Restricted) Restricted { return adversary.JoinAll(rs...) }

// Registry names of the built-in protocols, usable with RunProtocol.
const (
	ProtocolPKA       = protocol.PKA
	ProtocolZCPA      = protocol.ZCPA
	ProtocolPPA       = protocol.PPA
	ProtocolBroadcast = protocol.Broadcast
	ProtocolMBRB      = protocol.MBRB
	ProtocolSMT       = protocol.SMT
)

// Protocols returns the names of every registered protocol, sorted.
func Protocols() []string { return protocol.Names() }

// RunProtocol resolves a protocol by registry name and executes it on the
// instance with dealer value xD. A non-nil corrupt map takes precedence
// over opts.Corrupt. Receiver-decides protocols stop as soon as the
// receiver decides; broadcast-style protocols run until quiescence.
func RunProtocol(name string, in *Instance, xD Value, corrupt map[int]Process, opts RunOptions) (*Result, error) {
	if corrupt != nil {
		opts.Corrupt = corrupt
	}
	return protocol.RunByName(name, in, xD, opts)
}

// Generalised is the fully generalised adversary of the SMT model: a
// corruption structure 𝒵 (active, Byzantine) combined with a listening
// structure ℒ (passive, eavesdropping). Its Feasible method is the
// Dowden-style cut characterization SMTFeasible evaluates.
type Generalised = adversary.Generalised

// NewGeneralised pairs a corruption structure with a listening structure.
// Either may be NoCorruption() for a purely passive or purely active
// adversary.
func NewGeneralised(z, listen Structure) Generalised { return adversary.NewGeneralised(z, listen) }

// IsCapsError reports whether err (anywhere in its chain) is a protocol
// capability rejection — the protocol refusing the requested
// instance/option pairing outright rather than failing mid-run. CLIs treat
// these as usage errors (exit 2), not run failures.
func IsCapsError(err error) bool { return protocol.IsCapsError(err) }

// MessageAdversary is the message-suppression adversary of the MBRB model:
// per broadcast it may drop up to d copies before they enter the delivery
// calendar (suppressed copies surface as Lose tracer events, keeping
// Sent = Delivered + Lost). Adversaries are single-use, like Schedulers.
type MessageAdversary = network.MessageAdversary

// Stock message-adversary policy names, usable with NewMessageAdversary.
const (
	MATargeted = network.MATargeted
	MARandom   = network.MARandom
	MAEclipse  = network.MAEclipse
)

// MessageAdversaryNames returns the stock suppression policy names, sorted.
func MessageAdversaryNames() []string { return network.MessageAdversaryNames() }

// NewMessageAdversary builds the named stock suppression policy with
// per-broadcast budget d. Every random choice flows from the seed, so equal
// (name, d, seed) triples reproduce a run byte-for-byte.
func NewMessageAdversary(name string, d int, seed int64) (MessageAdversary, error) {
	return network.NewMessageAdversary(name, d, seed)
}

// NewEclipse builds an eclipse message adversary suppressing every copy
// addressed to the given victims, budget permitting (d = len(victims)).
func NewEclipse(victims ...int) MessageAdversary { return network.NewEclipse(victims...) }

// NewJSONLTracer returns a Tracer streaming every run event as one JSON
// object per line on w, for offline analysis.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return network.NewJSONLTracer(w) }

// SolvablePKA reports whether RMT is solvable on the instance — the tight
// condition of Theorems 3 & 5 (no RMT-cut). RMT-PKA succeeds exactly on
// solvable instances (it is unique, Corollary 6).
func SolvablePKA(in *Instance) bool { return core.Solvable(in) }

// SolvableZCPA reports whether ad hoc RMT is solvable — Theorems 7 & 8 (no
// RMT 𝒵-pp cut). 𝒵-CPA succeeds exactly on solvable instances.
func SolvableZCPA(in *Instance) bool { return zcpa.Solvable(in) }

// FindRMTCut searches for a Definition-3 RMT-cut witness.
func FindRMTCut(in *Instance) (RMTCut, bool) { return core.FindRMTCut(in) }

// FindZppCut searches for a Definition-7 RMT 𝒵-pp cut witness.
func FindZppCut(in *Instance) (ZppCut, bool) { return zcpa.FindRMTZppCut(in) }

// ApplyDelta applies a topology delta to an instance, rebuilding the view
// function from the edited graph with rebuildView and checking every view
// it returns (callers holding a gen.Knowledge level can use
// gen.ApplyDelta, which at ad hoc builds and checks only the stars the
// delta changed).
func ApplyDelta(in *Instance, d Delta, rebuildView func(*Graph) ViewFunction) (*Instance, error) {
	return instance.Apply(in, d, func(g *graph.Graph, _ view.Function, _ nodeset.Set) (view.Function, nodeset.Set) {
		return rebuildView(g), g.Nodes()
	})
}

// ChainKey extends a (base instance, delta chain) cache key by one delta:
// starting from in.CanonicalKey(), each delta hashes the previous key with
// its canonical rendering, so every edit history has its own identity.
func ChainKey(prev string, d Delta) string { return instance.ChainKey(prev, d) }

// FindPairCut searches for the full-knowledge 𝒵-pair cut (PPA's condition).
func FindPairCut(in *Instance) (z1, z2 Set, found bool) { return ppa.PairCut(in) }

// VerifyRMTCut independently checks a claimed RMT-cut witness against
// Definition 3 — the cheap counterpart to FindRMTCut's exponential search.
func VerifyRMTCut(in *Instance, cut RMTCut) error { return core.VerifyRMTCut(in, cut) }

// VerifyZppCut independently checks a claimed RMT 𝒵-pp cut witness against
// Definition 7.
func VerifyZppCut(in *Instance, cut ZppCut) error { return zcpa.VerifyZppCut(in, cut) }

// FindRMTCutBounded is the anytime variant of FindRMTCut: it inspects at
// most maxCandidates receiver-side candidates (0 = unlimited) and
// additionally reports whether the search space was fully covered. Found
// witnesses are always genuine.
func FindRMTCutBounded(in *Instance, maxCandidates int) (cut RMTCut, found, complete bool) {
	return core.FindRMTCutBounded(in, maxCandidates)
}

// FindZppCutBounded is the anytime variant of FindZppCut.
func FindZppCutBounded(in *Instance, maxCandidates int) (cut ZppCut, found, complete bool) {
	return zcpa.FindRMTZppCutBounded(in, maxCandidates)
}

// ResilientPKA verifies operationally that RMT-PKA delivers against every
// maximal corruption set (silent adversary — the liveness worst case).
func ResilientPKA(in *Instance) (bool, error) { return protocol.Resilient(core.Proto{}, in) }

// ResilientZCPA verifies operationally that 𝒵-CPA delivers against every
// maximal corruption set.
func ResilientZCPA(in *Instance) (bool, error) { return protocol.Resilient(zcpa.Proto{}, in) }

// SilentCorruption corrupts every node of t with the silent (blocking)
// strategy — the worst case for liveness against safe protocols.
func SilentCorruption(t Set) map[int]Process { return protocol.Silence(t) }

// AttackStrategies returns the names of every registered Byzantine attack
// strategy, sorted — the keys usable with NewAttack and rmtsim's -attack.
func AttackStrategies() []string { return byzantine.Names() }

// NewAttack resolves a strategy by registry name and builds the
// corrupt-process overlay for the nodes of t, with forged as the attacker's
// preferred wrong value (ignored by strategies that never inject values).
func NewAttack(name string, in *Instance, t Set, forged Value) (map[int]Process, error) {
	s, ok := byzantine.Get(name)
	if !ok {
		return nil, byzantine.UnknownError(name)
	}
	return s.Build(in, t, forged), nil
}

// AttackZoo returns the full registered Byzantine strategy suite against an
// instance for corruption set t — from protocol-agnostic nuisances (silent,
// spammer, replayer) to the protocol-aware attacks of Theorem 4's adversary
// (equivocator, path-forger, view-liar, eclipser, and the classic forgery
// suite). Keys are strategy names; see AttackStrategies.
func AttackZoo(in *Instance, t Set, forged Value) map[string]map[int]Process {
	zoo := make(map[string]map[int]Process)
	for _, s := range byzantine.All() {
		zoo[s.Name()] = s.Build(in, t, forged)
	}
	return zoo
}

// NewBasic builds a Figure-1 basic instance (middle set + structure).
func NewBasic(middle Set, z Structure) Basic { return selfred.NewBasic(middle, z) }

// NewPiDecider builds the Theorem 9 Decision Protocol for an instance's
// local knowledge, pluggable into RunOptions.Decider.
func NewPiDecider(in *Instance) *PiDecider {
	return &PiDecider{LK: in.LocalKnowledge()}
}

// Package attack is the randomized Theorem-4 safety fuzzer: it samples
// instances and admissible corruption sets, corrupts them with every
// registered byzantine strategy, runs every registered protocol on both
// engines, and asserts the paper's safety guarantee — no honest player ever
// decides a value other than x_D while the corruption set is in 𝒵 — plus
// transcript-level engine agreement.
//
// Two guard rails keep the oracle honest:
//
//   - control runs corrupt a minimal NON-admissible superset (a maximal set
//     of 𝒵 plus one honest node); their outcomes are counted but not
//     asserted, documenting that the guarantee being fuzzed is exactly the
//     t ∈ 𝒵 boundary;
//   - a table of canaries runs deliberately unsafe decision rules (the
//     gullible receivers in canary.go) through the same cells and oracle,
//     and the sweep FAILS unless the oracle flags each of them — a safety
//     fuzzer that cannot catch a gullible receiver has no teeth.
//
// Every run is one cell (see cell): a protocol.Cell naming its engine,
// schedule and message adversary, plus the corruption set, from which the
// sweep, the trace replay of a violating run, the canaries and the privacy
// battery all build their run options the same way.
package attack

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/eval"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/view"
)

// ForgedValue is the default wrong value injected by value-forging
// strategies. It sorts before the honest dealer value "1", so a decision
// rule that is gullible toward lexicographically small candidates (the
// canary) is reliably fooled.
const ForgedValue = "0!forged"

// xD is the honest dealer value used by every sweep run.
const xD network.Value = "1"

// Config parameterizes a sweep.
type Config struct {
	// Seed is the master seed; per-trial RNGs derive from it via
	// eval.TrialSeed, so a sweep is reproducible at any worker count.
	Seed int64
	// Trials is the number of sampled (instance, corruption) trials.
	Trials int
	// Workers bounds the worker pool (≤ 0 = one per logical CPU).
	Workers int
	// Protocols to exercise (nil = every registered protocol).
	Protocols []string
	// Strategies to exercise (nil = every registered strategy).
	Strategies []string
	// Engines to exercise (nil = lockstep and goroutine).
	Engines []network.Engine
	// Schedules are async delivery schedules to cross with every
	// (instance, protocol, strategy) cell: each named schedule adds one run
	// under the async engine with a per-trial seeded scheduler, asserting
	// the same Theorem-4 oracle. The "sync" schedule additionally asserts
	// transcript- and decision-agreement with the synchronous engines (the
	// zero-fault schedule must be indistinguishable from lockstep). Nil
	// means no schedule runs.
	Schedules []string
	// MABudgets are message-adversary suppression budgets to cross with
	// every (instance, protocol, strategy) cell: for each budget d, every
	// stock suppression policy runs once under lockstep, and every
	// configured schedule runs once more with the seeded random policy on
	// top — the Theorem-4 oracle is safety-only, so it holds under message
	// loss for every protocol. Adversary seeds derive from (Seed, trial),
	// so any violation replays exactly. Nil means no suppression runs.
	MABudgets []int
	// MaxRounds bounds each run (0 = 16, ample for the sampled instances
	// and necessary because nuisance strategies never quiesce).
	MaxRounds int
	// Out, when non-nil, receives one JSONL record per run, in trial
	// order, plus full message-level event traces (network.JSONLTracer)
	// for every violating run and for every canary run.
	Out io.Writer
}

func (c Config) protocols() []string {
	if len(c.Protocols) > 0 {
		return c.Protocols
	}
	return protocol.Names()
}

func (c Config) strategies() []string {
	if len(c.Strategies) > 0 {
		return c.Strategies
	}
	return byzantine.Names()
}

func (c Config) engines() []network.Engine {
	if len(c.Engines) > 0 {
		return c.Engines
	}
	return []network.Engine{network.Lockstep, network.Goroutine}
}

func (c Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 16
}

// Violation is one observed breach of the Theorem-4 safety guarantee: an
// honest player decided a value other than x_D under an admissible
// corruption set.
type Violation struct {
	Trial    int           `json:"trial"`
	Instance string        `json:"instance"`
	Protocol string        `json:"protocol"`
	Strategy string        `json:"strategy"`
	Engine   string        `json:"engine"`
	Corrupt  []int         `json:"corrupt"`
	Node     int           `json:"node"`
	Got      network.Value `json:"got"`
}

func (v Violation) String() string {
	return fmt.Sprintf("trial %d %s: %s under %s/%s, corrupt %v: node %d decided %q ≠ %q",
		v.Trial, v.Instance, v.Protocol, v.Strategy, v.Engine, v.Corrupt, v.Node, v.Got, xD)
}

// Mismatch is a transcript- or decision-level disagreement between engines
// on the same deterministic run.
type Mismatch struct {
	Trial    int    `json:"trial"`
	Instance string `json:"instance"`
	Protocol string `json:"protocol"`
	Strategy string `json:"strategy"`
	Detail   string `json:"detail"`
}

// Report aggregates a sweep.
type Report struct {
	Trials int
	Runs   int

	Violations []Violation
	Mismatches []Mismatch

	// ControlRuns / ControlViolations count the non-admissible-superset
	// control runs and how many of them breached safety. Controls are
	// documentation, not assertions: outside 𝒵 the theorem promises
	// nothing.
	ControlRuns       int
	ControlViolations int

	// Skipped counts (protocol, fixture) cells the matrix left out because
	// the protocol's Assemble rejected the pairing as a capability mismatch
	// (protocol.CapsError) — e.g. SMT on a sample whose corruptible ground
	// covers every D–R path. Skips are expected; aborting on them would let
	// one infeasible pairing kill a whole sweep.
	Skipped int

	// PrivacyRuns / PrivacyViolations count the SMT listening-adversary
	// battery: paired-secret runs whose recorded coalition views must be
	// independent of the secret.
	PrivacyRuns       int
	PrivacyViolations []PrivacyViolation

	// Canaries counts each oracle's teeth check by canary name: runs of a
	// deliberately unsafe protocol variant through the oracle, and how many
	// of them it flagged. The sweep fails unless every canary that ran was
	// flagged at least once.
	Canaries map[string]CanaryTally
}

// CanaryTally counts one canary's runs and the runs its oracle flagged.
type CanaryTally struct {
	Runs, Flagged int
}

// canaryNames returns the report's canary names, sorted.
func (r *Report) canaryNames() []string {
	names := make([]string, 0, len(r.Canaries))
	for name := range r.Canaries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Err reports whether the sweep establishes what it claims: zero safety
// and privacy violations, zero engine disagreements, and oracles with teeth.
func (r *Report) Err() error {
	if len(r.Violations) > 0 {
		return fmt.Errorf("attack: %d Theorem-4 safety violations (first: %s)",
			len(r.Violations), r.Violations[0])
	}
	if len(r.Mismatches) > 0 {
		m := r.Mismatches[0]
		return fmt.Errorf("attack: %d engine disagreements (first: trial %d %s/%s: %s)",
			len(r.Mismatches), m.Trial, m.Protocol, m.Strategy, m.Detail)
	}
	if len(r.PrivacyViolations) > 0 {
		return fmt.Errorf("attack: %d SMT privacy violations (first: %s)",
			len(r.PrivacyViolations), r.PrivacyViolations[0])
	}
	for _, name := range r.canaryNames() {
		if c := r.Canaries[name]; c.Runs > 0 && c.Flagged == 0 {
			return fmt.Errorf("attack: %s survived %d runs undetected — its oracle has no teeth", name, c.Runs)
		}
	}
	return nil
}

// Summary renders a one-paragraph human summary.
func (r *Report) Summary() string {
	canaries := make([]string, 0, len(r.Canaries))
	for _, name := range r.canaryNames() {
		c := r.Canaries[name]
		canaries = append(canaries, fmt.Sprintf("%d/%d %s runs", c.Flagged, c.Runs, name))
	}
	return fmt.Sprintf(
		"attack sweep: %d trials, %d runs (%d cells skipped on capability mismatch): "+
			"%d violations, %d engine mismatches; "+
			"%d control runs (%d unsafe, expected outside 𝒵); "+
			"%d privacy runs, %d violations; canary flagged in %s",
		r.Trials, r.Runs, r.Skipped, len(r.Violations), len(r.Mismatches),
		r.ControlRuns, r.ControlViolations,
		r.PrivacyRuns, len(r.PrivacyViolations), strings.Join(canaries, ", "))
}

// sample is one drawn (instance, corruption, control) trial.
type sample struct {
	desc     string
	in       *instance.Instance
	full     *instance.Instance // full-knowledge clone for NeedsFullKnowledge protocols
	complete *instance.Instance // complete-graph clone for CompleteGraph protocols
	corrupt  nodeset.Set        // admissible: a random maximal set of 𝒵
	control  nodeset.Set        // minimal non-admissible superset, empty if none exists
}

// forProtocol picks the instance clone matching the protocol's capability
// requirements: all three clones share the node set, adversary structure and
// terminals, so the trial's corruption and control sets stay admissible.
func (s *sample) forProtocol(p protocol.Protocol) *instance.Instance {
	switch {
	case p.Caps().NeedsFullKnowledge:
		return s.full
	case p.Caps().CompleteGraph:
		return s.complete
	default:
		return s.in
	}
}

// drawSample derives a deterministic trial fixture from the trial's RNG.
func drawSample(rng *rand.Rand) (*sample, error) {
	var (
		g    *graph.Graph
		z    adversary.Structure
		d, r int
		desc string
	)
	level := gen.Levels()[rng.Intn(len(gen.Levels()))]
	switch rng.Intn(4) {
	case 0:
		paths, hops := 2+rng.Intn(2), 1+rng.Intn(2)
		g, d, r = gen.DisjointPaths(paths, hops)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("paths(%d,%d)/%s", paths, hops, level)
	case 1:
		k := 2 + rng.Intn(2)
		g, z, d, r = gen.ChimeraScaled(k)
		desc = fmt.Sprintf("chimera(%d)/%s", k, level)
	case 2:
		width := 2 + rng.Intn(2)
		g, d, r = gen.Layered(2, width)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("layered(2,%d)/%s", width, level)
	default:
		n := 5 + rng.Intn(4)
		in, err := gen.RandomInstance(rng, n, 0.4, 2+rng.Intn(2), 0.3, level)
		if err == nil && hasCorruptibleSet(in) {
			return finishSample(in, fmt.Sprintf("gnp(%d)/%s", n, level), rng)
		}
		// Rare degenerate draw — unbuildable, or an adversary structure whose
		// only admissible set is ∅ (nothing to corrupt). Fall back to a fixed
		// family so the trial still contributes coverage.
		g, d, r = gen.DisjointPaths(3, 1)
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(d, r)))
		desc = fmt.Sprintf("paths(3,1)/%s", level)
	}
	in, err := gen.Build(g, z, level, d, r)
	if err != nil {
		return nil, fmt.Errorf("attack: building %s: %w", desc, err)
	}
	return finishSample(in, desc, rng)
}

// hasCorruptibleSet reports whether the instance admits any non-empty
// corruption set — the precondition for a meaningful attack trial.
func hasCorruptibleSet(in *instance.Instance) bool {
	for _, t := range in.MaximalCorruptions() {
		if t.Len() > 0 {
			return true
		}
	}
	return false
}

// finishSample picks the trial's corruption set and control superset and
// materializes the full-knowledge clone.
func finishSample(in *instance.Instance, desc string, rng *rand.Rand) (*sample, error) {
	maximal := in.MaximalCorruptions()
	nonEmpty := maximal[:0:0]
	for _, t := range maximal {
		if t.Len() > 0 {
			nonEmpty = append(nonEmpty, t)
		}
	}
	if len(nonEmpty) == 0 {
		return nil, fmt.Errorf("attack: %s has no non-empty corruption set", desc)
	}
	corrupt := nonEmpty[rng.Intn(len(nonEmpty))]

	// Control: the chosen maximal set plus the smallest honest non-terminal
	// that pushes it outside 𝒵.
	control := nodeset.Empty()
	in.HonestNodes(corrupt).ForEach(func(v int) bool {
		if v == in.Dealer || v == in.Receiver {
			return true
		}
		if super := corrupt.Add(v); !in.Admissible(super) {
			control = super
			return false
		}
		return true
	})

	full, err := instance.New(in.G, in.Z, view.Full(in.G), in.Dealer, in.Receiver)
	if err != nil {
		return nil, fmt.Errorf("attack: full-knowledge clone of %s: %w", desc, err)
	}
	cg := graph.New()
	nodes := in.G.Nodes().Members()
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			cg.AddEdge(u, v)
		}
	}
	complete, err := instance.AdHoc(cg, in.Z, in.Dealer, in.Receiver)
	if err != nil {
		return nil, fmt.Errorf("attack: complete-graph clone of %s: %w", desc, err)
	}
	return &sample{desc: desc, in: in, full: full, complete: complete, corrupt: corrupt, control: control}, nil
}

// runRecord is the per-run JSONL summary record.
type runRecord struct {
	Type     string        `json:"type"` // "run"
	Trial    int           `json:"trial"`
	Instance string        `json:"instance"`
	Protocol string        `json:"protocol"`
	Strategy string        `json:"strategy"`
	Engine   string        `json:"engine"`
	Corrupt  []int         `json:"corrupt"`
	InZ      bool          `json:"in_z"`
	Rounds   int           `json:"rounds"`
	Messages int           `json:"messages"`
	Decided  bool          `json:"decided"`
	Value    network.Value `json:"value,omitempty"`
	Safe     bool          `json:"safe"`
	// Message-adversary runs only: the suppression policy, its budget, and
	// how many copies it actually dropped.
	MAPolicy   string `json:"ma_policy,omitempty"`
	MABudget   int    `json:"ma_budget,omitempty"`
	Suppressed int    `json:"suppressed,omitempty"`
}

// cell is one sweep run as pure data: a protocol.Cell (engine, schedule
// and message adversary) plus the corruption set the strategy overlays. A
// trial's cells are built once and their seeds derive from (Seed, trial)
// alone, so any cell replays exactly — which is how a violating run is
// re-traced.
type cell struct {
	protocol.Cell
	corrupt nodeset.Set
	// control marks a non-admissible control run: recorded, never asserted.
	control bool
}

// label is the cell's engine label in records and reports, e.g. "goroutine",
// "async/random" or "lockstep+ma/eclipse(d=1)".
func (c cell) label() string {
	l := c.Engine.Name()
	if c.Schedule != "" {
		l += "/" + c.Schedule
	}
	if c.MAPolicy != "" {
		l += fmt.Sprintf("+ma/%s(d=%d)", c.MAPolicy, c.MABudget)
	}
	return l
}

// run executes proto on in under the cell, with a fresh strat overlay
// (strategy processes are stateful and single-use) corrupting the cell's
// set, and returns the result and the number of copies the message
// adversary suppressed. A non-nil trace receives the run's message-level
// JSONL event stream.
func (c cell) run(cfg Config, proto protocol.Protocol, in *instance.Instance,
	strat byzantine.Strategy, trace io.Writer) (*network.Result, int, error) {
	opts, err := c.Options()
	if err != nil {
		return nil, 0, err
	}
	opts.MaxRounds = cfg.maxRounds()
	opts.RecordTranscript = true
	opts.Corrupt = strat.Build(in, c.corrupt, ForgedValue)
	var jsonl *network.JSONLTracer
	if trace != nil {
		jsonl = network.NewJSONLTracer(trace)
		opts.Tracers = []network.Tracer{jsonl}
	}
	res, err := protocol.Run(proto, in, xD, opts)
	if err == nil && jsonl != nil {
		err = jsonl.Err()
	}
	if err != nil || opts.MsgAdversary == nil {
		return res, 0, err
	}
	return res, opts.MsgAdversary.Suppressed(), nil
}

// mustAgree reports whether the cell must reproduce cells[0], the first
// engine's run, transcript for transcript: every loss-free admissible cell
// that runs synchronously or under the zero-fault schedule.
func (c cell) mustAgree() bool {
	return !c.control && c.MAPolicy == "" && (c.Schedule == "" || c.Schedule == network.SchedSync)
}

// maStreams spaces the per-budget seed streams of the message-adversary
// cells; it only needs to exceed the number of stock policies and schedules.
const maStreams = 16

// cells lists one trial's runs of each (protocol, strategy) pair, in record
// order: every engine; every schedule under the async engine; for each
// suppression budget, every stock policy under lockstep and then every
// schedule under the seeded random policy; and the control.
func (c Config) cells(smp *sample, trial int) []cell {
	var cells []cell
	for _, e := range c.engines() {
		cells = append(cells, cell{Cell: protocol.Cell{Engine: e}, corrupt: smp.corrupt})
	}
	for i, sched := range c.Schedules {
		cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Async,
			Schedule: sched, SchedSeed: eval.TrialSeed(c.Seed, 1000+i, trial)}, corrupt: smp.corrupt})
	}
	for b, d := range c.MABudgets {
		for p, policy := range network.MessageAdversaryNames() {
			cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Lockstep,
				MAPolicy: policy, MABudget: d, MASeed: eval.TrialSeed(c.Seed, 2000+b*maStreams+p, trial)}, corrupt: smp.corrupt})
		}
		for i, sched := range c.Schedules {
			cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Async,
				Schedule: sched, SchedSeed: eval.TrialSeed(c.Seed, 3000+b*maStreams+i, trial),
				MAPolicy: network.MARandom, MABudget: d, MASeed: eval.TrialSeed(c.Seed, 4000+b*maStreams+i, trial)}, corrupt: smp.corrupt})
		}
	}
	if smp.control.Len() > 0 {
		cells = append(cells, cell{Cell: protocol.Cell{Engine: network.Lockstep}, corrupt: smp.control, control: true})
	}
	return cells
}

// trialResult is everything one trial reports back to the aggregator.
type trialResult struct {
	err        error
	runs       int
	skipped    int
	violations []Violation
	mismatches []Mismatch
	ctrlRuns   int
	ctrlViol   int
	records    []runRecord
	// violating runs to re-trace for the JSONL stream
	traces []traceRequest
}

// traceRequest identifies a violating run for replay.
type traceRequest struct {
	proto protocol.Protocol
	in    *instance.Instance
	strat byzantine.Strategy
	cell  cell
}

// Sweep runs the fuzzer and aggregates its report. The per-trial work is
// fanned across eval.ParallelMap; records and traces are emitted serially
// in trial order after the pool drains, so output is deterministic.
func Sweep(cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	results := eval.ParallelMap(cfg.Trials, cfg.Workers, func(trial int) trialResult {
		rng := rand.New(rand.NewSource(eval.TrialSeed(cfg.Seed, 0, trial)))
		return runTrial(cfg, trial, rng)
	})

	rep := &Report{Trials: cfg.Trials, Canaries: map[string]CanaryTally{}}
	for _, tr := range results {
		if tr.err != nil {
			return nil, tr.err
		}
		rep.Runs += tr.runs
		rep.Skipped += tr.skipped
		rep.Violations = append(rep.Violations, tr.violations...)
		rep.Mismatches = append(rep.Mismatches, tr.mismatches...)
		rep.ControlRuns += tr.ctrlRuns
		rep.ControlViolations += tr.ctrlViol
	}

	if cfg.Out != nil {
		enc := json.NewEncoder(cfg.Out)
		for _, tr := range results {
			for _, rec := range tr.records {
				if err := enc.Encode(rec); err != nil {
					return nil, fmt.Errorf("attack: writing records: %w", err)
				}
			}
			for _, req := range tr.traces {
				if err := traceRun(cfg, req); err != nil {
					return nil, err
				}
			}
		}
	}

	if err := runCanaries(cfg, rep); err != nil {
		return nil, err
	}
	if err := runPrivacyBattery(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTrial runs every protocol × strategy pair on one sampled fixture,
// under every one of the trial's cells.
func runTrial(cfg Config, trial int, rng *rand.Rand) trialResult {
	var tr trialResult
	smp, err := drawSample(rng)
	if err != nil {
		tr.err = err
		return tr
	}
	cells := cfg.cells(smp, trial)
	for _, protoName := range cfg.protocols() {
		proto, ok := protocol.Get(protoName)
		if !ok {
			tr.err = fmt.Errorf("attack: unknown protocol %q", protoName)
			return tr
		}
		in := smp.forProtocol(proto)
		// Pre-flight: a protocol may reject the sampled fixture outright as
		// a capability mismatch (SMT when the corruptible ground covers
		// every D–R path). That is a property of the pairing, not an error
		// of the sweep — skip the cell instead of aborting the trial; such
		// protocols get their dedicated coverage from their own batteries.
		if _, err := proto.Assemble(in, xD, protocol.Options{}); err != nil && protocol.IsCapsError(err) {
			tr.skipped++
			continue
		}
		for _, stratName := range cfg.strategies() {
			strat, ok := byzantine.Get(stratName)
			if !ok {
				tr.err = byzantine.UnknownError(stratName)
				return tr
			}
			if tr.err = tr.runCells(cfg, trial, smp.desc, in, proto, strat, cells); tr.err != nil {
				return tr
			}
		}
	}
	return tr
}

// runCells runs one (protocol, strategy) pair under every cell and folds the
// outcomes into tr: the Theorem-4 oracle on admissible cells, engine
// agreement with cells[0] on the cells that must reproduce it, and the
// control cell's outcome counted but not asserted.
func (tr *trialResult) runCells(cfg Config, trial int, desc string, in *instance.Instance,
	proto protocol.Protocol, strat byzantine.Strategy, cells []cell) error {
	var ref *network.Result // cells[0]'s run, which mustAgree cells reproduce
	for i, c := range cells {
		res, suppressed, err := c.run(cfg, proto, in, strat, nil)
		if err != nil {
			return fmt.Errorf("attack: trial %d %s %s/%s on %s: %w",
				trial, desc, proto.Name(), strat.Name(), c.label(), err)
		}
		unsafe := res.UnsafeDeciders(c.corrupt, xD)
		val, decided := res.DecisionOf(in.Receiver)
		tr.records = append(tr.records, runRecord{
			Type: "run", Trial: trial, Instance: desc,
			Protocol: proto.Name(), Strategy: strat.Name(), Engine: c.label(),
			Corrupt: members(c.corrupt), InZ: !c.control,
			Rounds: res.Rounds, Messages: res.Metrics.MessagesSent,
			Decided: decided, Value: val, Safe: len(unsafe) == 0,
			MAPolicy: c.MAPolicy, MABudget: c.MABudget, Suppressed: suppressed,
		})
		if c.control {
			tr.ctrlRuns++
			if len(unsafe) > 0 {
				tr.ctrlViol++
			}
			continue
		}
		tr.runs++
		for _, v := range unsafe {
			tr.violations = append(tr.violations, Violation{
				Trial: trial, Instance: desc,
				Protocol: proto.Name(), Strategy: strat.Name(),
				Engine: c.label(), Corrupt: members(c.corrupt),
				Node: v, Got: res.Decisions[v],
			})
		}
		if len(unsafe) > 0 {
			tr.traces = append(tr.traces, traceRequest{proto: proto, in: in, strat: strat, cell: c})
		}
		switch {
		case i == 0:
			ref = res
		case c.mustAgree():
			if d := network.Disagreement(ref, res); d != "" {
				tr.mismatches = append(tr.mismatches, Mismatch{
					Trial: trial, Instance: desc,
					Protocol: proto.Name(), Strategy: strat.Name(),
					Detail: fmt.Sprintf("%s vs %s: %s", c.label(), cells[0].label(), d),
				})
			}
		}
	}
	return nil
}

func members(s nodeset.Set) []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// traceRun replays a violating cell with a message-level JSONL tracer
// attached, so the attack trace lands in the output stream after the
// violating trial's summary records. The cell's seeds reproduce the
// violating delivery order and suppression pattern exactly.
func traceRun(cfg Config, req traceRequest) error {
	if _, _, err := req.cell.run(cfg, req.proto, req.in, req.strat, cfg.Out); err != nil {
		return fmt.Errorf("attack: tracing %s/%s on %s: %w",
			req.proto.Name(), req.strat.Name(), req.cell.label(), err)
	}
	return nil
}

// ParseEngines parses a comma-separated engine list
// ("lockstep,goroutine,async"). A bare "async" engine runs under the
// zero-fault schedule; use Config.Schedules for adversarial schedules.
func ParseEngines(s string) ([]network.Engine, error) {
	if s == "" {
		return nil, nil
	}
	var out []network.Engine
	for _, name := range strings.Split(s, ",") {
		e, err := network.EngineByName(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("attack: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// ParseBudgets parses a comma-separated list of message-adversary
// suppression budgets for Config.MABudgets.
func ParseBudgets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		var d int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &d); err != nil {
			return nil, fmt.Errorf("attack: bad suppression budget %q", field)
		}
		if d < 0 {
			return nil, fmt.Errorf("attack: negative suppression budget %d", d)
		}
		out = append(out, d)
	}
	return out, nil
}

// ParseSchedules parses a comma-separated schedule list for
// Config.Schedules; "all" expands to every stock schedule.
func ParseSchedules(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return network.SchedulerNames(), nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if _, err := network.NewScheduler(name, 0); err != nil {
			return nil, fmt.Errorf("attack: %w", err)
		}
		out = append(out, name)
	}
	return out, nil
}

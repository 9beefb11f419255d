package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmt/internal/byzantine"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

func TestSweepHoldsTheoremFourSafety(t *testing.T) {
	var out bytes.Buffer
	rep, err := Sweep(Config{Seed: 7, Trials: 12, Workers: 2, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("no cells skipped: smt should reject samples whose ground covers every path")
	}
	wantRuns := (12*len(protocol.Names()) - rep.Skipped) * len(byzantine.Names()) * 2
	if rep.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d (unskipped cells × strategies × engines)", rep.Runs, wantRuns)
	}
	if c := rep.Canaries[CanaryName]; c.Runs != len(byzantine.Names()) || c.Flagged == 0 {
		t.Fatalf("canary flagged in %d/%d runs, want one run per strategy and a flag", c.Flagged, c.Runs)
	}
	if rep.ControlRuns == 0 {
		t.Fatal("no control runs: the non-𝒵 boundary went unexercised")
	}
	text := out.String()
	if !strings.Contains(text, `"type":"run"`) {
		t.Fatal("JSONL stream has no run records")
	}
	// The canary battery always traces through the JSONL tracer, so the
	// stream must contain message-level events too.
	if !strings.Contains(text, `"send"`) && !strings.Contains(text, `"begin_run"`) {
		t.Fatalf("JSONL stream has no tracer events:\n%.400s", text)
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Sweep(Config{Seed: 11, Trials: 6, Workers: 1, Out: &a}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(Config{Seed: 11, Trials: 6, Workers: 4, Out: &b}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("sweep output depends on worker count")
	}
}

func TestSweepFlagsCanaryViolation(t *testing.T) {
	// Run ONLY the canary battery path with a value-forging strategy and
	// check the oracle flags the gullible receiver directly.
	in, corrupt, err := canaryFixture()
	if err != nil {
		t.Fatal(err)
	}
	strat := byzantine.MustGet(byzantine.ValueFlipName)
	res, err := protocol.Run(canaryProto{}, in, xD, protocol.Options{
		MaxRounds: 16,
		Corrupt:   strat.Build(in, corrupt, ForgedValue),
	})
	if err != nil {
		t.Fatal(err)
	}
	viols := unsafeDecisions(in, corrupt, res)
	if len(viols) == 0 {
		t.Fatal("gullible receiver survived a value flipper")
	}
	if viols[0].node != in.Receiver || viols[0].got == xD {
		t.Fatalf("unexpected violation shape: %+v", viols[0])
	}
	// Under the silent adversary the gullible receiver decides the honest
	// value — the oracle must not false-positive.
	silent := byzantine.MustGet(byzantine.SilentName)
	res, err = protocol.Run(canaryProto{}, in, xD, protocol.Options{
		MaxRounds: 16,
		Corrupt:   silent.Build(in, corrupt, ForgedValue),
	})
	if err != nil {
		t.Fatal(err)
	}
	if viols := unsafeDecisions(in, corrupt, res); len(viols) != 0 {
		t.Fatalf("oracle false-positived on a safe run: %+v", viols)
	}
}

func TestReportErrRequiresTeeth(t *testing.T) {
	rep := &Report{Canaries: map[string]CanaryTally{CanaryName: {Runs: 5}}}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "teeth") {
		t.Fatalf("toothless report did not fail: %v", err)
	}
	rep.Canaries[CanaryName] = CanaryTally{Runs: 5, Flagged: 1}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rep.Canaries[MBRBCanaryName] = CanaryTally{Runs: 3}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), MBRBCanaryName) {
		t.Fatalf("toothless mbrb canary did not fail: %v", err)
	}
	rep.Canaries[MBRBCanaryName] = CanaryTally{Runs: 3, Flagged: 1}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rep.Violations = []Violation{{Protocol: "pka"}}
	if rep.Err() == nil {
		t.Fatal("violations did not fail the report")
	}
	rep = &Report{Mismatches: []Mismatch{{Detail: "x"}}}
	if rep.Err() == nil {
		t.Fatal("engine mismatches did not fail the report")
	}
}

func TestParseEngines(t *testing.T) {
	got, err := ParseEngines("lockstep,goroutine,async")
	if err != nil || len(got) != 3 || got[0] != network.Lockstep || got[1] != network.Goroutine || got[2] != network.Async {
		t.Fatalf("ParseEngines = %v, %v", got, err)
	}
	if _, err := ParseEngines("warp"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if got, err := ParseEngines(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
}

func TestParseSchedules(t *testing.T) {
	got, err := ParseSchedules("sync,random")
	if err != nil || len(got) != 2 || got[0] != "sync" || got[1] != "random" {
		t.Fatalf("ParseSchedules = %v, %v", got, err)
	}
	all, err := ParseSchedules("all")
	if err != nil || len(all) != len(network.SchedulerNames()) {
		t.Fatalf(`ParseSchedules("all") = %v, %v`, all, err)
	}
	if _, err := ParseSchedules("bogus"); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if got, err := ParseSchedules(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
}

// TestSweepMessageAdversaryCrossProduct runs the suppression-crossing sweep:
// every cell gains one lockstep run per (budget, stock policy) and one async
// run per (budget, schedule) under the seeded random policy, the Theorem-4
// oracle holds on all of them, and the MBRB canary battery proves the oracle
// keeps its teeth under message loss.
func TestSweepMessageAdversaryCrossProduct(t *testing.T) {
	var out bytes.Buffer
	budgets := []int{1, 2}
	scheds := []string{"sync", "random"}
	rep, err := Sweep(Config{
		Seed:      9,
		Trials:    4,
		Workers:   2,
		Engines:   []network.Engine{network.Lockstep},
		Schedules: scheds,
		MABudgets: budgets,
		Out:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	perCell := 1 + len(scheds) + len(budgets)*(len(network.MessageAdversaryNames())+len(scheds))
	wantRuns := (4*len(protocol.Names()) - rep.Skipped) * len(byzantine.Names()) * perCell
	if rep.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d (unskipped cells × strategies × (engines + schedules + ma cells))",
			rep.Runs, wantRuns)
	}
	wantMBRB := len(byzantine.Names()) * (1 + len(budgets))
	if c := rep.Canaries[MBRBCanaryName]; c.Runs != wantMBRB || c.Flagged == 0 {
		t.Fatalf("mbrb canary flagged in %d/%d runs, want %d runs and a flag", c.Flagged, c.Runs, wantMBRB)
	}
	text := out.String()
	if !strings.Contains(text, `"ma_policy":"targeted"`) || !strings.Contains(text, `"ma_policy":"random"`) {
		t.Fatal("JSONL stream has no message-adversary run records")
	}
	if !strings.Contains(text, "+ma/") {
		t.Fatal("JSONL stream has no suppression engine labels")
	}
}

// TestSweepMessageAdversaryDeterministic re-runs the suppression sweep at
// different worker counts and requires byte-identical JSONL output — the
// adversary seeds must derive from (Seed, trial) alone.
func TestSweepMessageAdversaryDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	cfg := Config{
		Seed:      17,
		Trials:    3,
		Engines:   []network.Engine{network.Lockstep},
		Schedules: []string{"random"},
		MABudgets: []int{1},
	}
	cfg.Workers, cfg.Out = 1, &a
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Workers, cfg.Out = 4, &b
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("suppression sweep output depends on worker count")
	}
}

func TestParseBudgets(t *testing.T) {
	got, err := ParseBudgets("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ParseBudgets = %v, %v", got, err)
	}
	if _, err := ParseBudgets("-1"); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := ParseBudgets("x"); err == nil {
		t.Fatal("non-numeric budget accepted")
	}
	if got, err := ParseBudgets(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
}

// TestMBRBCanaryFlagsReadyForger pins the mechanism: the gullible MBRB
// receiver decides the forged value off a single unverified READY, with and
// without a suppression budget in play.
func TestMBRBCanaryFlagsReadyForger(t *testing.T) {
	in, corrupt, err := mbrbCanaryFixture()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1} {
		strat := byzantine.MustGet(byzantine.ReadyForgerName)
		opts := protocol.Options{
			MaxRounds: 16,
			Corrupt:   strat.Build(in, corrupt, ForgedValue),
			MABudget:  budget,
		}
		if budget > 0 {
			opts.MsgAdversary = network.MustMessageAdversary(network.MATargeted, budget, 0)
		}
		res, err := protocol.Run(mbrbCanaryProto{}, in, xD, opts)
		if err != nil {
			t.Fatal(err)
		}
		viols := unsafeDecisions(in, corrupt, res)
		if len(viols) == 0 {
			t.Fatalf("d=%d: gullible mbrb receiver survived the ready forger", budget)
		}
		if viols[0].node != in.Receiver || viols[0].got == xD {
			t.Fatalf("d=%d: unexpected violation shape: %+v", budget, viols[0])
		}
	}
	// Under the silent adversary every ready the gullible receiver sees is
	// honest, so the oracle must not false-positive.
	silent := byzantine.MustGet(byzantine.SilentName)
	res, err := protocol.Run(mbrbCanaryProto{}, in, xD, protocol.Options{
		MaxRounds: 16,
		Corrupt:   silent.Build(in, corrupt, ForgedValue),
	})
	if err != nil {
		t.Fatal(err)
	}
	if viols := unsafeDecisions(in, corrupt, res); viols != nil {
		t.Fatalf("oracle false-positived on a safe mbrb canary run: %+v", viols)
	}
}

// TestSweepSchedulesCrossProduct runs the schedule-crossing sweep: every
// cell gains one async run per schedule, the zero-fault schedule must agree
// with lockstep, and the Theorem-4 oracle must hold on every delivery order.
func TestSweepSchedulesCrossProduct(t *testing.T) {
	scheds := network.SchedulerNames()
	rep, err := Sweep(Config{
		Seed:      5,
		Trials:    6,
		Workers:   2,
		Engines:   []network.Engine{network.Lockstep},
		Schedules: scheds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	wantRuns := (6*len(protocol.Names()) - rep.Skipped) * len(byzantine.Names()) * (1 + len(scheds))
	if rep.Runs != wantRuns {
		t.Fatalf("runs = %d, want %d (unskipped cells × strategies × (engines + schedules))",
			rep.Runs, wantRuns)
	}
}

// TestSweepSchedulesDeterministic re-runs the schedule sweep at different
// worker counts and requires byte-identical JSONL output — the determinism
// claim the seeded schedulers exist to provide.
func TestSweepSchedulesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	cfg := Config{
		Seed:      13,
		Trials:    4,
		Engines:   []network.Engine{network.Lockstep},
		Schedules: []string{"random", "partition"},
	}
	cfg.Workers, cfg.Out = 1, &a
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Workers, cfg.Out = 4, &b
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("schedule sweep output depends on worker count")
	}
	if !strings.Contains(a.String(), `"engine":"async/random"`) {
		t.Fatal("JSONL stream has no async schedule records")
	}
}

// TestSweepGoroutineEngineUnderRace exercises the goroutine engine through
// the full attack matrix with a parallel worker pool; `go test -race` on
// this package makes it a data-race detector for the strategies, which
// must not share state across runs.
func TestSweepGoroutineEngineUnderRace(t *testing.T) {
	rep, err := Sweep(Config{
		Seed:    3,
		Trials:  4,
		Workers: 4,
		Engines: []network.Engine{network.Goroutine},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsafeDecisionsOracle(t *testing.T) {
	in, corrupt, err := canaryFixture()
	if err != nil {
		t.Fatal(err)
	}
	res := &network.Result{Decisions: map[int]network.Value{
		0: xD,         // dealer: honest, correct
		1: "0!forged", // corrupted node: its decisions are ignored
		4: "0!forged", // honest receiver deciding wrong: violation
		2: xD,         // honest, correct
	}}
	viols := unsafeDecisions(in, corrupt, res)
	if len(viols) != 1 || viols[0].node != 4 {
		t.Fatalf("oracle = %+v, want exactly node 4", viols)
	}
	_ = nodeset.Empty() // keep import if fixture changes
}

var updateDigest = flag.Bool("update", false, "rewrite testdata/sweep-stream.sha256")

// TestSweepStreamDigest pins the JSONL stream of a small sweep that crosses
// every cell kind — three engines, the zero-fault and a seeded schedule,
// every suppression policy, scheduled suppression, controls and both safety
// canaries — as a SHA-256 digest, so a refactor of the run plumbing must
// reproduce every record and trace byte for byte. Regenerate after an
// intentional change with:
//
//	go test ./internal/attack/ -run TestSweepStreamDigest -update
func TestSweepStreamDigest(t *testing.T) {
	var out bytes.Buffer
	rep, err := Sweep(Config{
		Seed:      5,
		Trials:    4,
		Workers:   2,
		Engines:   []network.Engine{network.Lockstep, network.Goroutine, network.Async},
		Schedules: []string{"sync", "random"},
		MABudgets: []int{1},
		Out:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	got := hex.EncodeToString(sum[:]) + "\n"
	path := filepath.Join("testdata", "sweep-stream.sha256")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record the digest)", err)
	}
	if got != string(want) {
		t.Fatalf("sweep JSONL digest = %s, want %s (%d bytes)", strings.TrimSpace(got), strings.TrimSpace(string(want)), out.Len())
	}
}

// TestTraceReplaysViolatingCells runs the gullible canary through the
// sweep's own per-cell code — runCells, then traceRun for every violating
// cell — and checks that each replayed trace runs on the violating cell's
// engine and shows the receiver deciding the violation's value. The canary
// is fooled on engine, schedule and suppression cells alike, so the replay
// is exercised for every cell kind.
func TestTraceReplaysViolatingCells(t *testing.T) {
	in, corrupt, err := canaryFixture()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed:      5,
		Engines:   []network.Engine{network.Lockstep, network.Goroutine},
		Schedules: []string{"sync", "random"},
		MABudgets: []int{1},
	}
	smp := &sample{desc: CanaryName, in: in, corrupt: corrupt}
	var tr trialResult
	strat := byzantine.MustGet(byzantine.ValueFlipName)
	if err := tr.runCells(cfg, 0, smp.desc, in, canaryProto{}, strat, cfg.cells(smp, 0)); err != nil {
		t.Fatal(err)
	}
	traced := map[string]bool{}
	kinds := map[string]bool{}
	for _, req := range tr.traces {
		c := req.cell
		traced[c.label()] = true
		switch {
		case c.MAPolicy != "":
			kinds["suppression"] = true
		case c.Schedule != "":
			kinds["schedule"] = true
		default:
			kinds["engine"] = true
		}
		var out bytes.Buffer
		cfg.Out = &out
		if err := traceRun(cfg, req); err != nil {
			t.Fatal(err)
		}
		engine, decided := "", map[int]string{}
		for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
			var ev struct {
				Ev     string `json:"ev"`
				Player *int   `json:"player"`
				Value  string `json:"value"`
				Engine string `json:"engine"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("%s trace line %s: %v", c.label(), line, err)
			}
			switch ev.Ev {
			case "run":
				engine = ev.Engine
			case "decide":
				decided[*ev.Player] = ev.Value
			}
		}
		if engine != c.Engine.Name() {
			t.Errorf("%s trace ran on %q, want %q", c.label(), engine, c.Engine.Name())
		}
		for _, v := range tr.violations {
			if v.Engine == c.label() && decided[v.Node] != string(v.Got) {
				t.Errorf("%s trace: node %d decided %q, violation says %q", c.label(), v.Node, decided[v.Node], v.Got)
			}
		}
	}
	for _, v := range tr.violations {
		if !traced[v.Engine] {
			t.Errorf("violation on %s was never traced", v.Engine)
		}
	}
	for _, kind := range []string{"engine", "schedule", "suppression"} {
		if !kinds[kind] {
			t.Errorf("no violating %s cell: the canary fooled only %v", kind, traced)
		}
	}
}

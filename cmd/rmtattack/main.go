// Command rmtattack runs the randomized Theorem-4 safety sweep: seeded
// trials sampling instances and admissible corruption sets, throwing every
// registered Byzantine strategy at every registered protocol on both
// engines, and asserting that no honest node ever decides a value other
// than x_D. A deliberately gullible canary decision rule is attacked in
// the same battery to prove the oracle has teeth.
//
// With -schedules, every (instance, protocol, strategy) cell additionally
// runs under the async engine with each named seeded delivery schedule
// (delay, reorder, partition-then-heal), asserting the same oracle on every
// schedule and transcript agreement between the zero-fault schedule and the
// synchronous engines.
//
// With -mabudgets, every cell is additionally crossed with a message
// adversary: for each budget d, one lockstep run per stock suppression
// policy (targeted, random, eclipse) and one extra async run per configured
// schedule under the seeded random policy. The safety oracle must hold
// under message loss, and a gullible MBRB canary — a receiver that ignores
// the protocol's distinct-sender quorums — must be flagged or the sweep
// fails.
//
// Usage:
//
//	rmtattack -trials 200 -seed 1 -out traces.jsonl
//	rmtattack -trials 100 -seed 2 -engines lockstep -schedules all
//	rmtattack -trials 60 -seed 4 -engines lockstep -schedules all -mabudgets 1,2
//
// Exit status is 1 on any safety violation, engine disagreement, or an
// unflagged canary, and 2 on a usage error (bad flags, unknown names).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rmt/internal/attack"
	"rmt/internal/byzantine"
	"rmt/internal/protocol"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmtattack:", err)
	}
	os.Exit(exitCode(err))
}

// usageError marks invalid invocations: bad flags, unknown registry names.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode maps run's error to the exit status, the rmtsim contract: 2 for
// a usage error, 1 for a failed sweep of valid flags.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usageError{}):
		return 2
	default:
		return 1
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmtattack", flag.ContinueOnError)
	var (
		trials     = fs.Int("trials", 200, "number of seeded fuzz trials")
		seed       = fs.Int64("seed", 1, "root seed; per-trial seeds derive deterministically")
		workers    = fs.Int("workers", 0, "parallel workers (<=0 = GOMAXPROCS)")
		protocols  = fs.String("protocols", "", "comma-separated protocol subset (default: all registered)")
		strategies = fs.String("strategies", "", "comma-separated strategy subset (default: all registered)")
		engines    = fs.String("engines", "", "comma-separated engines: lockstep,goroutine,async (default: lockstep+goroutine)")
		schedules  = fs.String("schedules", "", "comma-separated async schedules to cross in (or \"all\"); each adds a seeded async run per cell")
		mabudgets  = fs.String("mabudgets", "", "comma-separated message-adversary suppression budgets; each crosses every cell with the stock suppression policies")
		maxRounds  = fs.Int("maxrounds", 0, "round cap per run (0 = default)")
		outPath    = fs.String("out", "", "JSONL stream of run records and attack traces (\"-\" = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	cfg := attack.Config{
		Seed:      *seed,
		Trials:    *trials,
		Workers:   *workers,
		MaxRounds: *maxRounds,
	}
	if *protocols != "" {
		cfg.Protocols = splitList(*protocols)
	}
	for _, name := range cfg.Protocols {
		if _, ok := protocol.Get(name); !ok {
			return usageError{protocol.UnknownError(name)}
		}
	}
	if *strategies != "" {
		cfg.Strategies = splitList(*strategies)
	}
	for _, name := range cfg.Strategies {
		if _, ok := byzantine.Get(name); !ok {
			return usageError{byzantine.UnknownError(name)}
		}
	}
	var err error
	if *engines != "" {
		if cfg.Engines, err = attack.ParseEngines(*engines); err != nil {
			return usageError{err}
		}
	}
	if *schedules != "" {
		if cfg.Schedules, err = attack.ParseSchedules(*schedules); err != nil {
			return usageError{err}
		}
	}
	if *mabudgets != "" {
		if cfg.MABudgets, err = attack.ParseBudgets(*mabudgets); err != nil {
			return usageError{err}
		}
	}
	if *outPath != "" {
		w := out
		if *outPath != "-" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		cfg.Out = w
	}
	rep, err := attack.Sweep(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep.Summary())
	for _, v := range rep.Violations {
		fmt.Fprintln(out, "VIOLATION:", v)
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintf(out, "ENGINE MISMATCH: trial %d %s %s/%s: %s\n",
			m.Trial, m.Instance, m.Protocol, m.Strategy, m.Detail)
	}
	return rep.Err()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

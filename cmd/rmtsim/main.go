// Command rmtsim runs one protocol execution on one instance and reports
// the receiver's decision with full complexity metrics — the smallest way
// to watch any registered protocol (RMT-PKA, 𝒵-CPA, PPA, broadcast) at
// work, including under attack.
//
// Usage:
//
//	rmtsim -graph "0-1 0-2 0-3 1-4 2-4 3-4" -structure "1;2;3" \
//	       -dealer 0 -receiver 4 -protocol pka -value "attack at dawn" \
//	       -corrupt 2 -attack value-flip
//
// A message adversary can suppress up to -mabudget copies of every
// broadcast on top of the node corruption (mbrb provisions its quorums for
// the budget):
//
//	rmtsim -graph "0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5" \
//	       -structure "1;2;3;4" -dealer 0 -receiver 5 -protocol mbrb \
//	       -corrupt 1 -ma targeted -mabudget 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rmt"
	"rmt/internal/cliutil"
	"rmt/internal/protocol"
	"rmt/internal/wire" // registers the real-socket "wire" engine
)

func main() {
	// A wire-engine coordinator re-execs this binary once per player; such
	// children divert into the node main loop before any flag parsing.
	if wire.IsNode() {
		os.Exit(wire.NodeMain())
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmtsim:", err)
		// Usage errors (bad flags, bad instance, unknown names) exit 2;
		// failures of a validly-specified run exit 1.
		if errors.As(err, &runError{}) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// runError marks errors that occur after validation, while executing the
// requested protocol run.
type runError struct{ err error }

func (e runError) Error() string { return e.err.Error() }
func (e runError) Unwrap() error { return e.err }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmtsim", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "instance spec file (see rmtgen -spec); overrides the other instance flags")
		graphStr  = fs.String("graph", "", "edge list (required unless -file)")
		structStr = fs.String("structure", "", "adversary structure, e.g. \"1,2;3\"")
		dealer    = fs.Int("dealer", 0, "dealer node ID")
		receiver  = fs.Int("receiver", -1, "receiver node ID (required unless -file)")
		knowledge = fs.String("knowledge", "adhoc", "adhoc|radius1|radius2|radius3|full")
		protoName = fs.String("protocol", rmt.ProtocolPKA, "protocol name: "+strings.Join(rmt.Protocols(), "|"))
		value     = fs.String("value", "1", "dealer value x_D")
		listen    = fs.String("listen", "", "listening structure ℒ for smt, e.g. \"2;3\" (empty = no listening)")
		corrupt   = fs.String("corrupt", "", "corrupted nodes, e.g. \"2,3\" (must be admissible)")
		attack    = fs.String("attack", "silent", "attack strategy: "+strings.Join(rmt.AttackStrategies(), "|"))
		engine    = fs.String("engine", "lockstep", "engine name: "+strings.Join(rmt.Engines(), "|"))
		sched     = fs.String("sched", "sync", "async schedule: "+strings.Join(rmt.SchedulerNames(), "|"))
		seed      = fs.Int64("seed", 1, "schedule seed (async engine)")
		ma        = fs.String("ma", "", "message-adversary policy (none if empty): "+strings.Join(rmt.MessageAdversaryNames(), "|"))
		maBudget  = fs.Int("mabudget", 0, "copies the message adversary may suppress per broadcast (requires -ma)")
		maSeed    = fs.Int64("maseed", 1, "message-adversary seed (random/eclipse policies)")
		node      = fs.Bool("node", false, "internal: wire-engine node child (set by the coordinator)")
		perRound  = fs.Bool("rounds", false, "print per-round message counts")
		trace     = fs.Bool("trace", false, "print every delivered message, round by round")
		jsonl     = fs.String("jsonl", "", "stream run events as JSON lines to this file (\"-\" = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node {
		return fmt.Errorf("-node is internal: it marks a child process spawned by the wire engine and needs the coordinator's environment")
	}
	var spec cliutil.InstanceSpec
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		spec, err = cliutil.ParseInstanceSpec(string(data))
		if err != nil {
			return err
		}
	} else {
		if *graphStr == "" || *receiver < 0 {
			return fmt.Errorf("-graph and -receiver (or -file) are required")
		}
		g, err := rmt.ParseEdgeList(*graphStr)
		if err != nil {
			return err
		}
		z, err := cliutil.ParseStructure(*structStr)
		if err != nil {
			return err
		}
		level, err := cliutil.ParseKnowledge(*knowledge)
		if err != nil {
			return err
		}
		spec = cliutil.InstanceSpec{Graph: g, Z: z, Knowledge: level, Dealer: *dealer, Receiver: *receiver}
	}
	*receiver = spec.Receiver
	in, err := spec.Instance()
	if err != nil {
		return err
	}
	t, err := cliutil.ParseNodeSet(*corrupt)
	if err != nil {
		return err
	}
	if !in.Admissible(t) {
		return fmt.Errorf("corruption set %v is not admissible under %v", t, in.Z)
	}
	eng, err := rmt.ParseEngine(*engine)
	if err != nil {
		return err
	}
	cell := protocol.Cell{Engine: eng, SchedSeed: *seed, MAPolicy: *ma, MABudget: *maBudget, MASeed: *maSeed}
	if eng == rmt.Async {
		cell.Schedule = *sched
	} else if *sched != "sync" {
		return fmt.Errorf("-sched %q requires -engine async", *sched)
	}

	var corruptProcs map[int]rmt.Process
	if !t.IsEmpty() {
		corruptProcs, err = rmt.NewAttack(*attack, in, t, "forged-by-"+rmt.Value(*attack))
		if err != nil {
			return err
		}
	}

	listenZ, err := cliutil.ParseStructure(*listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}

	if *ma == "" && *maBudget != 0 {
		return fmt.Errorf("-mabudget %d requires -ma", *maBudget)
	}
	opts, err := cell.Options()
	if err != nil {
		return err
	}
	opts.RecordTranscript, opts.Listen, opts.Seed = *trace, listenZ, *seed
	// The blueprint mirrors the flags as pure data; in-process engines
	// ignore it, the wire engine rebuilds the run from it in each child.
	opts.Blueprint = &rmt.Blueprint{
		Instance: spec.Format(),
		Protocol: *protoName,
		Value:    *value,
		Corrupt:  t.Members(),
		Attack:   *attack,
		Forged:   "forged-by-" + *attack,
		Listen:   cliutil.FormatStructure(listenZ),
		Seed:     *seed,
	}
	var jt *rmt.JSONLTracer
	if *jsonl != "" {
		w := out
		if *jsonl != "-" {
			f, err := os.Create(*jsonl)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		jt = rmt.NewJSONLTracer(w)
		opts.Tracers = []rmt.Tracer{jt}
	}
	res, err := rmt.RunProtocol(*protoName, in, rmt.Value(*value), corruptProcs, opts)
	if err != nil {
		// A capability rejection — the protocol refusing this instance or
		// listening-structure pairing outright — is a usage problem with the
		// requested configuration, not a failure of a valid run: exit 2.
		if rmt.IsCapsError(err) {
			return err
		}
		return runError{err}
	}
	if jt != nil {
		if err := jt.Err(); err != nil {
			return runError{fmt.Errorf("jsonl: %w", err)}
		}
	}
	if *trace && res.Transcript != nil {
		for r := 1; r <= res.Transcript.Rounds(); r++ {
			deliveries := res.Transcript.Deliveries(r)
			fmt.Fprintf(out, "round %d (%d deliveries):\n", r, len(deliveries))
			for _, m := range deliveries {
				fmt.Fprintf(out, "  %d → %d  %s\n", m.From, m.To, m.Payload.Key())
			}
		}
	}

	engineDesc := eng.Name()
	if opts.Scheduler != nil {
		engineDesc = fmt.Sprintf("%s sched=%s seed=%d", eng.Name(), opts.Scheduler.Name(), *seed)
	}
	if opts.MsgAdversary != nil {
		engineDesc = fmt.Sprintf("%s ma=%s(d=%d)", engineDesc, *ma, *maBudget)
	}
	fmt.Fprintf(out, "protocol=%s engine=%s corrupt=%v attack=%s\n", *protoName, engineDesc, t, *attack)
	if got, ok := res.DecisionOf(*receiver); ok {
		status := "CORRECT"
		if got != rmt.Value(*value) {
			status = "WRONG (safety violation!)"
		}
		fmt.Fprintf(out, "receiver decision: %q — %s\n", got, status)
	} else {
		fmt.Fprintln(out, "receiver decision: ⊥ (undecided)")
	}
	fmt.Fprintf(out, "rounds=%d messages=%d dropped=%d bits=%d maxInbox=%d\n",
		res.Rounds, res.Metrics.MessagesSent, res.Metrics.MessagesDropped,
		res.Metrics.BitsSent, res.Metrics.MaxInboxPerPlayer)
	if eng == rmt.Async {
		fmt.Fprintf(out, "delayed=%d\n", res.Metrics.MessagesDelayed)
	}
	if opts.MsgAdversary != nil {
		fmt.Fprintf(out, "suppressed=%d\n", opts.MsgAdversary.Suppressed())
	}
	if *perRound {
		for r, m := range res.Metrics.MessagesPerRound {
			fmt.Fprintf(out, "  round %2d: %d messages\n", r, m)
		}
	}
	return nil
}

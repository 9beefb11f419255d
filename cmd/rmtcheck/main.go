// Command rmtcheck decides RMT feasibility for an instance: it evaluates
// the paper's tight conditions (RMT-cut for the partial knowledge model,
// RMT 𝒵-pp cut for the ad hoc model, 𝒵-pair cut for full knowledge),
// prints witnesses, the minimal knowledge radius, and the feasible
// receiver set for network design.
//
// Usage:
//
//	rmtcheck -graph "0-1 0-2 0-3 1-4 2-4 1-5 3-5 4-6 5-6" \
//	         -structure "1;2;3" -dealer 0 -receiver 6 -knowledge adhoc
//
// Exit status is 2 on a usage error (bad flags or instance) and 1 when a
// witness the search found fails verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rmt"
	"rmt/internal/cliutil"
	"rmt/internal/gen"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmtcheck:", err)
	}
	os.Exit(exitCode(err))
}

// usageError marks invalid invocations: bad flags or a bad instance.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode maps run's error to the exit status, the rmtsim contract: 2 for
// a usage error, 1 for the failure of a valid check.
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
	fs := flag.NewFlagSet("rmtcheck", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "instance spec file (see rmtgen -spec); overrides the other instance flags")
		graphStr  = fs.String("graph", "", "edge list, e.g. \"0-1 1-2\" (required unless -file)")
		structStr = fs.String("structure", "", "adversary structure, e.g. \"1,2;3\"")
		dealer    = fs.Int("dealer", 0, "dealer node ID")
		receiver  = fs.Int("receiver", -1, "receiver node ID (required unless -file)")
		knowledge = fs.String("knowledge", "adhoc", "adhoc|radius1|radius2|radius3|full")
		design    = fs.Bool("design", false, "also list all feasible receivers (network design phase)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	spec, err := cliutil.LoadSpec(*file, *graphStr, *structStr, *knowledge, *dealer, *receiver)
	if err != nil {
		return usageError{err}
	}
	g, z, level := spec.Graph, spec.Z, spec.Knowledge
	*dealer, *receiver = spec.Dealer, spec.Receiver
	in, err := spec.Instance()
	if err != nil {
		return usageError{err}
	}

	fmt.Fprintf(out, "instance: n=%d m=%d dealer=%d receiver=%d knowledge=%s\n",
		g.NumNodes(), g.NumEdges(), *dealer, *receiver, level)
	fmt.Fprintf(out, "structure: %s (%d maximal sets)\n", in.Z, in.Z.NumMaximal())

	if cut, found := rmt.FindRMTCut(in); !found {
		fmt.Fprintln(out, "RMT (partial knowledge): SOLVABLE — no RMT-cut; RMT-PKA succeeds (Thm 5)")
	} else {
		if err := rmt.VerifyRMTCut(in, cut); err != nil {
			return fmt.Errorf("internal error: found witness fails verification: %w", err)
		}
		fmt.Fprintf(out, "RMT (partial knowledge): UNSOLVABLE — verified witness %v (Thm 3)\n", cut)
	}

	if level == gen.AdHoc {
		if cut, found := rmt.FindZppCut(in); !found {
			fmt.Fprintln(out, "RMT (ad hoc / Z-CPA):    SOLVABLE — no RMT Z-pp cut (Thm 7)")
		} else {
			if err := rmt.VerifyZppCut(in, cut); err != nil {
				return fmt.Errorf("internal error: found witness fails verification: %w", err)
			}
			fmt.Fprintf(out, "RMT (ad hoc / Z-CPA):    UNSOLVABLE — verified witness %v (Thm 8)\n", cut)
		}
	}

	if z1, z2, found := rmt.FindPairCut(in); found {
		fmt.Fprintf(out, "full-knowledge pair cut: %v ∪ %v — unsolvable even with γ = G\n", z1, z2)
	} else {
		fmt.Fprintln(out, "full-knowledge pair cut: none — solvable with full topology knowledge")
	}

	if k, ok := rmt.MinimalKnowledgeRadius(g, z, *dealer, *receiver); ok {
		fmt.Fprintf(out, "minimal knowledge radius: %d (graph diameter %d)\n", k, g.Diameter())
	} else {
		fmt.Fprintln(out, "minimal knowledge radius: none — unsolvable at every radius")
	}

	if *design {
		feasible := rmt.FeasibleReceivers(g, z, level.View(g), *dealer)
		fmt.Fprintf(out, "feasible receivers from %d at %s knowledge: %v\n", *dealer, level, feasible)
	}
	return nil
}

// Command rmtdbench is rmtd's end-to-end benchmark. It drives the rmtd
// handler in-process (server.New with rmtd's defaults, called through
// ServeHTTP) from one closed-loop client over a seeded workload, checks
// every reply, and prints one JSON line of metrics: the end-to-end metrics
// with --trace 0, the per-layer breakdown with --trace 1. Every timing is
// scaled by an interleaved reference kernel so host-speed drift cancels.
// See README.md for the workloads, the metrics and the method.
//
// Usage (from the repository root):
//
//	bash rmtdbench/run.sh --workload feasibility-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named number of the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the last line of standard output.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r result) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		val, err := json.Marshal(m.value)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", m.name, err)
		}
		fmt.Fprintf(&b, "%q:{\"value\":%s,\"unit\":%q}", m.name, val, m.unit)
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmtdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: equal seeds replay equal op sequences")
	seconds := fs.Int("seconds", 15, "run length; the op count is seconds × the workload's nominal rate")
	trace := fs.Int("trace", 0, "1 = print the per-layer breakdown from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rmtdbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	start := time.Now()
	p, err := w.plan(*seed, w.opCount(*seconds))
	if err != nil {
		fmt.Fprintln(stderr, "rmtdbench: generate:", err)
		return 1
	}
	fmt.Fprintf(stderr, "rmtdbench: %s seed=%d ops=%d (warm-up %d, primed %d), generated in %.2fs\n",
		w.name, *seed, len(p.ops), len(p.warm), len(p.prime), time.Since(start).Seconds())

	var out result
	if *trace == 1 {
		out = runTraced(w, p, *seed, stderr)
	} else {
		out = runUntraced(w, p, stderr)
	}
	fmt.Fprintf(stderr, "rmtdbench: done in %.2fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "rmtdbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, p *plan, stderr io.Writer) result {
	res := measure(p, nil, nil)
	res.srv.Close()
	sh, failures := check(w.name, p, res)
	report(stderr, w, p, res, sh, failures)
	return result{
		correct:   len(failures) == 0,
		attempted: len(p.ops),
		failed:    countFailedOps(failures),
		metrics:   res.endToEnd(),
	}
}

// report prints the human-readable part of a run to stderr: host speed,
// traffic shape against its stated bands, the longest op, and failures.
func report(stderr io.Writer, w workload, p *plan, res *runResult, sh shape, failures []failure) {
	fmt.Fprintf(stderr, "host.ref_ms=%.4f (nominal %.4f; timings scaled by nominal ÷ measured), unscaled ops_per_s=%.2f\n",
		res.refMs(), float64(refNominal)/1e6, float64(len(res.raw))/(sumOf(res.raw)/1e9))
	timed := res.phases.timedEnd.Sub(res.phases.timedStart)
	fmt.Fprintf(stderr, "set-up %.2fs (%d repetitions), timed phase %.2fs, longest op %.2fms (%.2f%% of the phase)\n",
		res.phases.timedStart.Sub(res.phases.setupStart).Seconds(), setupReps, timed.Seconds(),
		res.longestOp()/1e6, 100*res.longestOp()/float64(timed))
	for _, s := range sh.lines() {
		fmt.Fprintln(stderr, s)
	}
	for _, l := range classShares(p, res) {
		fmt.Fprintln(stderr, l)
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(stderr, "... %d more failures\n", len(failures)-10)
			break
		}
		fmt.Fprintln(stderr, "FAIL", f)
	}
}

// classShares reports each op class's share of scaled op time, op count,
// mean and longest op.
func classShares(p *plan, res *runResult) []string {
	stats := classStats(p, res)
	total := sumOf(res.scaled)
	var classes []string
	for c := range stats {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var out []string
	for _, c := range classes {
		st := stats[c]
		out = append(out, fmt.Sprintf("class %-10s ops=%5d share=%.3f mean_ms=%.3f max_ms=%.3f",
			c, st.ops, st.total/total, st.total/float64(st.ops)/1e6, st.worst/1e6))
	}
	return out
}

// classStat is one op class's scaled op time: the run-mix classes are the
// protocols.
type classStat struct {
	ops          int
	total, worst float64 // ns
}

func classStats(p *plan, res *runResult) map[string]*classStat {
	by := map[string]*classStat{}
	for i, o := range p.ops {
		st := by[o.class]
		if st == nil {
			st = &classStat{}
			by[o.class] = st
		}
		st.ops++
		st.total += res.scaled[i]
		st.worst = max(st.worst, res.scaled[i])
	}
	return by
}

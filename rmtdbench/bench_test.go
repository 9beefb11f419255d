package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rmt/internal/server"
)

// smallPlan generates a workload's first n timed ops.
func smallPlan(t *testing.T, name string, seed int64, n int) (workload, *plan) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p, err := w.plan(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

func measureOrFail(t *testing.T, p *plan, wrap wrapHandler) *runResult {
	t.Helper()
	res := measure(p, wrap, nil)
	res.srv.Close()
	return res
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return -1
}

// spin busy-waits for d without yielding, like handler work would.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestSyntheticSlowdownShows is the normalization's teeth: a handler made
// k% slower — a busy-spin sized so throughput drops by k% — must read as
// k% ± k/4 lower normalized ops_per_s. Pairs alternate which pass runs
// first, so steady host drift hits both sides alike, and the median of
// nine pairs is taken because host speed also moves between passes.
func TestSyntheticSlowdownShows(t *testing.T) {
	const k = 20.0
	_, p := smallPlan(t, "feasibility-cold", 1, 2000)
	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			spin(time.Duration(float64(time.Since(start)) * k / (100 - k)))
		})
	}
	opsPerS := func(wrap wrapHandler) float64 {
		return metricValue(measureOrFail(t, p, wrap).endToEnd(), "ops_per_s")
	}
	var falls []float64
	for pair := 0; pair < 9; pair++ {
		var base, slowed float64
		if pair%2 == 0 {
			base, slowed = opsPerS(nil), opsPerS(slow)
		} else {
			slowed, base = opsPerS(slow), opsPerS(nil)
		}
		falls = append(falls, 100*(1-slowed/base))
	}
	sort.Float64s(falls)
	t.Logf("ops_per_s falls of the nine pairs, %%: %.1f", falls)
	if fall := falls[len(falls)/2]; fall < k-k/4 || fall > k+k/4 {
		t.Errorf("a %.0f%% slowdown read as a %.1f%% fall in ops_per_s (pairs %v), want %.0f%% ± %.0f%%", k, fall, falls, k, k/4)
	}
}

// TestKernelAllocatesNothing keeps the reference kernel out of the GC's
// reach.
func TestKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if a := testing.AllocsPerRun(20, func() { k.run(7) }); a != 0 {
		t.Fatalf("reference kernel allocates %.0f objects per run", a)
	}
}

// TestScalesFollowKernel checks the scaling arithmetic: an op timed while
// the kernel ran twice as slow as nominal is halved.
func TestScalesFollowKernel(t *testing.T) {
	samples := []refSample{{0, refNominal}, {2, 2 * refNominal}, {2, 2 * refNominal}, {2, 2 * refNominal}, {2, 2 * refNominal}, {2, 2 * refNominal}, {2, 2 * refNominal}}
	f := scales(samples, 3)
	if f[2] != 0.5 {
		t.Fatalf("scale after a run of slow samples = %v, want 0.5", f[2])
	}
}

// TestOneOpInFlight: the load is one closed-loop client; no op starts
// while another is inside the handler.
func TestOneOpInFlight(t *testing.T) {
	for _, name := range []string{"feasibility-cold", "run-mix", "watch-churn"} {
		_, p := smallPlan(t, name, 1, 50)
		if res := measureOrFail(t, p, nil); res.maxOps != 1 {
			t.Errorf("%s: %d ops in flight at once", name, res.maxOps)
		}
	}
}

// TestRunRequestsStayWithinCPUs: no generated /v1/run request asks for more
// trials than CPUs (rmtd would fan them out) or for the goroutine engine
// (one goroutine per player per round).
func TestRunRequestsStayWithinCPUs(t *testing.T) {
	_, p := smallPlan(t, "run-mix", 1, 3000)
	for i, o := range append(p.warm, p.ops...) {
		var req server.RunRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Trials > runtime.NumCPU() || req.Engine == "goroutine" {
			t.Fatalf("request %d asks for %d trials on %q", i, req.Trials, req.Engine)
		}
	}
}

// TestSetupClockStartsAfterGeneration: inputs are complete before set-up is
// timed, and peak RSS is reset between the two, so neither set-up time nor
// peak RSS pays for input generation.
func TestSetupClockStartsAfterGeneration(t *testing.T) {
	_, p := smallPlan(t, "watch-churn", 1, 20)
	baseline := measureOrFail(t, p, nil).peakRSS
	// Stand in for a heavy generator: 96 MiB touched and dropped before
	// measure is called.
	junk := make([]byte, 96<<20)
	for i := range junk {
		junk[i] = byte(i)
	}
	junk = nil
	res := measureOrFail(t, p, nil)
	ph := res.phases
	if !(p.generated.Before(ph.rssReset) && ph.rssReset.Before(ph.setupStart) && ph.setupStart.Before(ph.timedStart)) {
		t.Fatalf("phases out of order: generated %v, %+v", p.generated, ph)
	}
	if res.peakRSS == 0 || raceEnabled {
		t.Skip("VmHWM unavailable, or inflated by the race detector's shadow memory")
	}
	if res.peakRSS > baseline+48 {
		t.Fatalf("peak RSS %.1f MB (%.1f MB without the dropped 96 MiB) still counts memory dropped before set-up", res.peakRSS, baseline)
	}
}

// TestNoOpDominatesDefaultSeed: on the default seed, at the default run
// length, no op takes more than 1% of its run's timed phase.
func TestNoOpDominatesDefaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length")
	}
	for _, w := range workloads {
		_, p := smallPlan(t, w.name, 1, w.opCount(15))
		res := measureOrFail(t, p, nil)
		timed := float64(res.phases.timedEnd.Sub(res.phases.timedStart))
		if share := res.longestOp() / timed; share > 0.01 {
			t.Errorf("%s: longest op %.1f ms is %.2f%% of the %.1f s timed phase", w.name, res.longestOp()/1e6, 100*share, timed/1e9)
		}
	}
}

// TestShapeInBandOnTwoSeeds: the traffic-shape ratios stay inside the
// bands the benchmark states on the default seed and another one.
func TestShapeInBandOnTwoSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, w := range workloads {
			_, p := smallPlan(t, w.name, seed, w.opCount(1))
			tr := trace(w, p)
			if len(tr.failures) > 0 {
				t.Errorf("%s seed %d: %v", w.name, seed, tr.failures[0])
			}
			for _, it := range tr.sh {
				// Time shares are timings; their band is checked by the
				// full runs' reports, not here.
				if !it.inBand() && !strings.HasSuffix(it.name, ".share") {
					t.Errorf("%s seed %d: %s", w.name, seed, tr.sh.lines())
				}
			}
		}
	}
}

// TestTracedCountsRepeat: the traced run's exact counters repeat across
// runs of one seed, its replay reproduces every handler reply, its layers
// plus residual account for the handler time within 10%, and its metrics
// are exactly the per-layer metrics BENCHMARK.json names, in order.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"network.messages_per_run", "network.rounds_per_run", "server.cache_hit_ratio",
		"core.incremental.repaired_ratio", "zcpa.incremental.repaired_ratio", "core.cut.found_ratio"}
	layers := benchmarkNames(t, "per_layer")
	for _, w := range workloads {
		var first []metric
		for rep := 0; rep < 2; rep++ {
			_, p := smallPlan(t, w.name, 3, w.opCount(1))
			tr := trace(w, p)
			if len(tr.failures) > 0 {
				t.Fatalf("%s: %v", w.name, tr.failures[0])
			}
			if a := tr.lt.accounted(); a < 0.9 || a > 1.1 {
				t.Errorf("%s: layers and residual account for %.1f%% of the handler time", w.name, 100*a)
			}
			ms := tr.t.layerMetrics(p, tr.base, tr.traced, tr.lt, tr.sh)
			if got := names(ms); !slices.Equal(got, layers) {
				t.Fatalf("%s: traced metrics %v, BENCHMARK.json per_layer %v", w.name, got, layers)
			}
			if rep == 0 {
				first = ms
				continue
			}
			for _, name := range exact {
				if a, b := metricValue(first, name), metricValue(ms, name); a != b {
					t.Errorf("%s: %s read %v then %v", w.name, name, a, b)
				}
			}
		}
	}
}

// TestUntracedMetricsMatchBenchmark: the result line of an untraced run
// carries exactly the end-to-end metrics BENCHMARK.json names, as the last
// line of standard output.
func TestUntracedMetricsMatchBenchmark(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "run-mix", "--seed", "2", "--seconds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Fatalf("result %+v", out)
	}
	var got []string
	for name, m := range out.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
		}
		got = append(got, name)
	}
	sort.Strings(got)
	want := benchmarkNames(t, "end_to_end")
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("metrics %v, BENCHMARK.json end_to_end %v", got, want)
	}
}

// TestRejectsBadArguments: unknown workloads and malformed flags exit
// non-zero without a result line.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "run-mix", "--trace", "2"},
		{"--workload", "run-mix", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// benchmarkNames reads one metric list's names from BENCHMARK.json.
func benchmarkNames(t *testing.T, list string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[list], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

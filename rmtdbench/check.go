package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/server"
	"rmt/internal/zcpa"
)

// failure is one reply that failed its check; op is the index into the
// timed ops, or -1 for a set-up reply.
type failure struct {
	op   int
	what string
}

func (f failure) String() string {
	if f.op < 0 {
		return "set-up: " + f.what
	}
	return fmt.Sprintf("op %d: %s", f.op, f.what)
}

// countFailedOps counts distinct timed ops among the failures; a failed
// set-up reply counts as one failed op, so it can never pass unnoticed.
func countFailedOps(fs []failure) int {
	seen := map[int]bool{}
	for _, f := range fs {
		seen[f.op] = true
	}
	return len(seen)
}

// shape is a run's traffic-shape report: ratios that say what kind of
// traffic ran, each with the band the benchmark promises for every seed.
type shape []shapeItem

type shapeItem struct {
	name      string
	value     float64
	low, high float64
}

func (s shape) lines() []string {
	var out []string
	for _, it := range s {
		verdict := "in band"
		if !it.inBand() {
			verdict = "OUT OF BAND"
		}
		out = append(out, fmt.Sprintf("shape %s=%.4f band [%.2f, %.2f] %s", it.name, it.value, it.low, it.high, verdict))
	}
	return out
}

func (it shapeItem) inBand() bool { return it.value >= it.low && it.value <= it.high }

// Traffic-shape bands: every seed's run must land inside them, so a claim
// re-checked on an unseen seed runs the same kind of traffic. Seeds 1–6
// read 0.28–0.29 (found) and 0.29–0.30 (both repaired ratios); protocol
// time shares read 0.10–0.25. The repaired ratios need the incremental
// checkers' counters, so only traced runs report them.
var (
	bandFoundRatio    = [2]float64{0.20, 0.40}
	bandRepairedRatio = [2]float64{0.20, 0.40}
	bandProtocolShare = [2]float64{0.05, 0.40}
)

// check verifies every reply of a pass off the clock and returns the
// pass's traffic shape and failures.
func check(name string, p *plan, res *runResult) (shape, []failure) {
	var fs []failure
	fail := func(i int, format string, args ...any) {
		fs = append(fs, failure{i, fmt.Sprintf(format, args...)})
	}
	// each checks replies to ops; failures of set-up replies count as op -1.
	each := func(ops []op, reps []reply, timed bool, fn func(o op, body []byte) error) {
		for i, rep := range reps {
			idx := i
			if !timed {
				idx = -1
			}
			if rep.code != http.StatusOK {
				fail(idx, "status %d: %s", rep.code, bytes.TrimSpace(rep.body))
			} else if err := fn(ops[i], rep.body); err != nil {
				fail(idx, "%v", err)
			}
		}
	}
	// The timed hit ratio must be exactly 1 on feasibility-hot and 0
	// elsewhere.
	hit := shapeItem{name: "server.cache_hit_ratio", value: res.timedHitRatio(p)}
	var sh shape
	switch name {
	case "feasibility-cold":
		found := 0
		count := func(o op, body []byte) error {
			w, err := checkFeasibility(o, body)
			if w {
				found++
			}
			return err
		}
		each(p.warm, res.warm, false, count)
		found = 0
		each(p.ops, res.replies, true, count)
		sh = append(sh, shapeItem{"core.cut.found_ratio", float64(found) / float64(len(p.ops)), bandFoundRatio[0], bandFoundRatio[1]})
	case "feasibility-hot":
		each(p.prime, res.prime, false, func(o op, body []byte) error {
			_, err := checkFeasibility(o, body)
			return err
		})
		primed := func(o op, body []byte) error {
			if !bytes.Equal(body, res.prime[o.ref].body) {
				return fmt.Errorf("body differs from the one primed for instance %d", o.ref)
			}
			return nil
		}
		each(p.warm, res.warm, false, primed)
		each(p.ops, res.replies, true, primed)
		hit.low, hit.high = 1, 1
	case "run-mix":
		each(p.warm, res.warm, false, checkRun)
		each(p.ops, res.replies, true, checkRun)
		for _, s := range protocolShares(p, res) {
			sh = append(sh, shapeItem{"protocol." + s.name + ".share", s.value, bandProtocolShare[0], bandProtocolShare[1]})
		}
	case "watch-churn":
		each(p.warm, res.warm, false, checkWatch)
		each(p.ops, res.replies, true, checkWatch)
	}
	return append(shape{hit}, sh...), fs
}

// timedHitRatio is the cache hit ratio over the timed ops alone, from the
// server's lifetime ratio before and after the timed phase. Every lookup
// is one request, or one revision on /v1/watch.
func (r *runResult) timedHitRatio(p *plan) float64 {
	before := lookups(p.warm) + lookups(p.prime)
	after := before + lookups(p.ops)
	hits := math.Round(r.hitAfter*float64(after)) - math.Round(r.hitBefore*float64(before))
	return hits / float64(after-before)
}

func lookups(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.path == "/v1/watch" {
			n += bytes.Count(bytes.TrimSpace(o.body), []byte("\n")) + 1
		} else {
			n++
		}
	}
	return n
}

// checkFeasibility verifies one /v1/feasibility reply against the instance
// it asked about and reports whether it carries an RMT-cut.
func checkFeasibility(o op, body []byte) (bool, error) {
	var req server.FeasibilityRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return false, err
	}
	var resp server.FeasibilityResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, fmt.Errorf("reply: %v", err)
	}
	in, level, err := buildRequest(req.InstanceRequest)
	if err != nil {
		return false, err
	}
	if resp.Key != in.CanonicalKey() || resp.Knowledge != level.String() {
		return false, fmt.Errorf("reply names instance %.12s/%s, want %.12s/%s", resp.Key, resp.Knowledge, in.CanonicalKey(), level)
	}
	if w := resp.PKA.Witness; w != nil {
		if err := core.VerifyRMTCut(in, core.RMTCut{C1: nodeset.Of(w.C1...), C2: nodeset.Of(w.C2...), B: nodeset.Of(w.B...)}); err != nil {
			return true, fmt.Errorf("pka witness: %v", err)
		}
	} else if !resp.PKA.Solvable {
		return false, fmt.Errorf("pka: neither solvable nor a witness")
	}
	found := resp.PKA.Witness != nil
	if (level == gen.AdHoc) != (resp.ZCPA != nil) {
		return found, fmt.Errorf("zcpa verdict present=%t at level %s", resp.ZCPA != nil, level)
	}
	if resp.ZCPA != nil {
		// Both characterize ad hoc RMT (Theorems 3/5 with γ ad hoc, and
		// Theorems 7/8), so on ad hoc instances they must agree.
		if resp.ZCPA.Solvable != resp.PKA.Solvable {
			return found, fmt.Errorf("ad hoc verdicts disagree: pka solvable=%t, zcpa solvable=%t", resp.PKA.Solvable, resp.ZCPA.Solvable)
		}
		if w := resp.ZCPA.Witness; w != nil {
			if err := zcpa.VerifyZppCut(in, zcpa.ZppCut{C1: nodeset.Of(w.C1...), C2: nodeset.Of(w.C2...), B: nodeset.Of(w.B...)}); err != nil {
				return found, fmt.Errorf("zcpa witness: %v", err)
			}
		}
	}
	listen, err := cliutil.ParseStructure(req.Listen)
	if err != nil {
		return found, err
	}
	if resp.SMT == nil || resp.SMT.Feasible != feasibility.SMTFeasible(in, listen) {
		return found, fmt.Errorf("smt verdict %+v disagrees with the predicate", resp.SMT)
	}
	mv, err := feasibility.MBRBVerdictFor(in, req.MABudget)
	if (err == nil) != (resp.MBRB != nil) || (resp.MBRB != nil && resp.MBRB.Feasible != mv.Feasible) {
		return found, fmt.Errorf("mbrb verdict %+v, predicate %+v (%v)", resp.MBRB, mv, err)
	}
	return found, nil
}

// checkRun verifies one /v1/run reply: every trial ran, none decided a
// value other than the dealer's (Theorem 4), every trial decided (run-mix
// families are all built solvable), and the message counters reconcile.
func checkRun(o op, body []byte) error {
	var req server.RunRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return err
	}
	var resp server.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("reply: %v", err)
	}
	if len(resp.Trials) != max(1, req.Trials) {
		return fmt.Errorf("%d trials, asked for %d", len(resp.Trials), req.Trials)
	}
	for k, tr := range resp.Trials {
		if tr.Decided && !tr.Correct {
			return fmt.Errorf("%s trial %d decided %q, not the dealer's value", req.Protocol, k, tr.Decision)
		}
		if !tr.Decided {
			return fmt.Errorf("%s on %s/%s attack %q trial %d did not decide", req.Protocol, req.Engine, req.Schedule, req.Attack, k)
		}
		if err := tr.Metrics.Reconcile(); err != nil {
			return fmt.Errorf("trial %d: %v", k, err)
		}
	}
	return nil
}

// watchLine is a line of the /v1/watch stream: an event or an error.
type watchLine struct {
	server.WatchEvent
	Error *string `json:"error"`
}

// checkWatch verifies one /v1/watch stream: no in-band error, rev 0
// present and revisions increasing, and the last revision's verdicts equal
// fresh searches on the final instance (the stream only reports changes,
// so the last event's verdict is the final revision's).
func checkWatch(o op, body []byte) error {
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last watchLine
	for k, l := range lines {
		var ev watchLine
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			return fmt.Errorf("line %d: %v", k, err)
		}
		if ev.Error != nil {
			return fmt.Errorf("in-band error at rev %d: %s", ev.Rev, *ev.Error)
		}
		if (k == 0 && ev.Rev != 0) || (k > 0 && ev.Rev <= last.Rev) {
			return fmt.Errorf("line %d has rev %d after rev %d", k, ev.Rev, last.Rev)
		}
		last = ev
	}
	final, err := finalInstance(o.body)
	if err != nil {
		return err
	}
	_, found := core.FindRMTCut(final)
	_, zfound := zcpa.FindRMTZppCut(final)
	if last.PKA.Solvable == found || last.ZCPA == nil || last.ZCPA.Solvable == zfound {
		return fmt.Errorf("final verdicts pka=%t zcpa=%v, fresh search: pka=%t zcpa=%t", last.PKA.Solvable, last.ZCPA, !found, !zfound)
	}
	return nil
}

// watchRequest splits a /v1/watch body into its base instance and deltas.
func watchRequest(body []byte) (server.InstanceRequest, []instance.Delta, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var req server.InstanceRequest
	if err := json.Unmarshal(lines[0], &req); err != nil {
		return req, nil, err
	}
	deltas := make([]instance.Delta, len(lines)-1)
	for i, l := range lines[1:] {
		if err := json.Unmarshal(l, &deltas[i]); err != nil {
			return req, nil, err
		}
	}
	return req, deltas, nil
}

func finalInstance(body []byte) (*instance.Instance, error) {
	req, deltas, err := watchRequest(body)
	if err != nil {
		return nil, err
	}
	in, level, err := buildRequest(req)
	if err != nil {
		return nil, err
	}
	return gen.ApplyDeltaChain(in, deltas, level)
}

// protocolShares is each protocol's share of run-mix's scaled op time.
func protocolShares(p *plan, res *runResult) []metric {
	stats := classStats(p, res)
	total := sumOf(res.scaled)
	var out []metric
	for _, f := range runFamilies {
		if st := stats[f.protocol]; st != nil {
			out = append(out, metric{f.protocol, st.total / total, "share"})
		}
	}
	return out
}

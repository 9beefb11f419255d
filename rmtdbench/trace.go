package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
	"rmt/internal/server"
	"rmt/internal/zcpa"
)

// The traced run. rmtd's handlers carry no instrumentation, so after each
// timed handler call the benchmark drives the same layers' public functions
// itself, in the order the handler calls them, on the same request, and
// records a span around each call. Replayed spans are children of the op's
// handler span although they run after it; the handler span's self time —
// its duration minus the replayed layers, floored at zero — is
// server.residual: the pool hop, LRU, mux and access log. End-to-end
// metrics never come from a traced pass.

// span is one timed interval of the traced pass.
type span struct {
	op         int
	name       string
	parent     int // index of the parent span; -1 for an op's handler span
	start, end time.Duration
	allocs     int64 // heap objects allocated inside; -1 when not counted
	root       bool  // an op's handler span
	attributed bool  // part of the op's time breakdown
}

// tracer records spans and the counts the replay observes.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
	stack    []int
	op       int
	failures []failure

	found, searched            int // cold instances with an RMT-cut, of all searched
	runs, messages, rounds     int // protocol executions and their exact counters
	runsBy                     map[string]int
	revs                       int
	repR, freshR, repZ, freshZ int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now(), runsBy: map[string]int{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// do records fn as a span; with allocs it also counts fn's heap objects,
// reading the counters outside the span so the reads are not timed.
func (t *tracer) do(name string, allocs bool, fn func()) {
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	parent := t.stack[len(t.stack)-1]
	id := len(t.spans)
	t.spans = append(t.spans, span{op: t.op, name: name, parent: parent, allocs: -1, attributed: t.spans[parent].attributed})
	t.stack = append(t.stack, id)
	t.spans[id].start = t.now()
	fn()
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if allocs {
		runtime.ReadMemStats(&m1)
		t.spans[id].allocs = int64(m1.Mallocs - m0.Mallocs)
	}
}

func (t *tracer) fail(format string, args ...any) {
	t.failures = append(t.failures, failure{t.op, "replay: " + fmt.Sprintf(format, args...)})
}

// afterOp is measure's hook: it records the handler span of op i and
// replays the op's layers.
func (t *tracer) afterOp(i int, o op, rep reply, d time.Duration) {
	end := t.now()
	t.op = i
	t.stack = append(t.stack[:0], len(t.spans))
	t.spans = append(t.spans, span{op: i, name: "handler", parent: -1, start: end - d, end: end, allocs: -1, root: true, attributed: true})
	if rep.code != http.StatusOK {
		return // the check reports it; there is nothing to replay
	}
	switch o.path {
	case "/v1/feasibility":
		t.feasibility(o.body, rep.body)
	case "/v1/run":
		t.run(o.body, rep.body)
	case "/v1/watch":
		t.watch(o.body)
	}
}

// decode mirrors the handler's strict JSON decoding.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// instance replays the shared instance path: parse, build, canonical key.
func (t *tracer) instance(q server.InstanceRequest, listenText string) (*instance.Instance, gen.Knowledge, adversary.Structure, bool) {
	var g *graph.Graph
	var z, listen adversary.Structure
	level := gen.AdHoc
	var err error
	t.do("cliutil.parse", false, func() {
		if g, err = graph.ParseEdgeList(q.Graph); err != nil {
			return
		}
		if z, err = cliutil.ParseStructure(q.Structure); err != nil {
			return
		}
		if q.Knowledge != "" {
			if level, err = cliutil.ParseKnowledge(q.Knowledge); err != nil {
				return
			}
		}
		listen, err = cliutil.ParseStructure(listenText)
	})
	if err != nil {
		t.fail("parse: %v", err)
		return nil, 0, listen, false
	}
	var in *instance.Instance
	t.do("instance.build", true, func() { in, err = gen.Build(g, z, level, q.Dealer, q.Receiver) })
	if err != nil {
		t.fail("build: %v", err)
		return nil, 0, listen, false
	}
	t.do("instance.key", false, func() { in.CanonicalKey() })
	return in, level, listen, true
}

func (t *tracer) feasibility(body, reply []byte) {
	var req server.FeasibilityRequest
	var err error
	t.do("server.decode", false, func() { err = decode(body, &req) })
	if err != nil {
		t.fail("decode: %v", err)
		return
	}
	in, level, listen, ok := t.instance(req.InstanceRequest, req.Listen)
	if !ok || t.workload == "feasibility-hot" {
		return // a cache hit stops after the key
	}
	ctx := context.Background()
	t.do("feasibility.mbrb", false, func() { _, _ = feasibility.MBRBVerdictFor(in, req.MABudget) })
	t.do("feasibility.smt", false, func() { feasibility.SMTVerdictFor(in, listen) })
	var found bool
	t.do("core.cut", true, func() { _, found, err = core.FindRMTCutCtx(ctx, in) })
	if err != nil {
		t.fail("core.cut: %v", err)
	}
	t.searched++
	if found {
		t.found++
	}
	if level == gen.AdHoc {
		t.do("zcpa.cut", true, func() { _, _, err = zcpa.FindRMTZppCutCtx(ctx, in) })
		if err != nil {
			t.fail("zcpa.cut: %v", err)
		}
	}
	var resp server.FeasibilityResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.fail("reply: %v", err)
		return
	}
	if resp.PKA.Solvable == found {
		t.fail("core.cut found=%t, handler answered solvable=%t", found, resp.PKA.Solvable)
	}
	t.do("server.encode", false, func() { _, err = json.Marshal(resp) })
}

// run replays a /v1/run request: each trial assembles the protocol and runs
// its engine as protocol.Run does, so assembly and engine time split
// inside the protocol's span. The replay must reproduce the handler's
// exact counters; lockstep trials are re-run on the goroutine engine
// outside the op's breakdown.
func (t *tracer) run(body, reply []byte) {
	var req server.RunRequest
	var err error
	t.do("server.decode", false, func() { err = decode(body, &req) })
	if err != nil {
		t.fail("decode: %v", err)
		return
	}
	in, _, _, ok := t.instance(req.InstanceRequest, "")
	if !ok {
		return
	}
	var resp server.RunResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.fail("reply: %v", err)
		return
	}
	p, ok := protocol.Get(req.Protocol)
	if !ok {
		t.fail("unknown protocol %q", req.Protocol)
		return
	}
	// The generator leaves value, attack and forged value at the handler's
	// defaults ("1", "silent", "forged-by-<attack>").
	if req.Attack == "" {
		req.Attack = "silent"
	}
	strategy, _ := byzantine.Get(req.Attack)
	rc := &runCase{p: p, in: in, req: &req, strategy: strategy, corrupt: nodeset.Of(req.Corrupt...)}
	for i, tr := range resp.Trials {
		res := t.trial(rc, req.Engine, i, true)
		if res == nil {
			return
		}
		if res.Rounds != tr.Rounds || res.Metrics.MessagesSent != tr.Metrics.MessagesSent {
			t.fail("%s trial %d replayed %d rounds/%d messages, handler %d/%d",
				req.Protocol, i, res.Rounds, res.Metrics.MessagesSent, tr.Rounds, tr.Metrics.MessagesSent)
		}
		t.runs++
		t.runsBy[req.Protocol]++
		t.runsBy["engine."+req.Engine]++
		t.messages += res.Metrics.MessagesSent
		t.rounds += res.Rounds
		if req.Engine == network.EngineLockstep {
			t.runsBy["engine."+network.EngineGoroutine]++
			t.trial(rc, network.EngineGoroutine, i, false)
		}
	}
	t.do("server.encode", false, func() { _, err = json.Marshal(resp) })
}

// runCase is what every trial of one /v1/run request shares.
type runCase struct {
	p        protocol.Protocol
	in       *instance.Instance
	req      *server.RunRequest
	strategy byzantine.Strategy
	corrupt  nodeset.Set
}

// trial runs trial i of rc on engine under spans named for its protocol
// and engine; attributed is false for the goroutine-engine re-run, which is
// not part of the op.
func (t *tracer) trial(rc *runCase, engine string, i int, attributed bool) *network.Result {
	p, in, req := rc.p, rc.in, rc.req
	eng, err := network.EngineByName(engine)
	if err != nil {
		t.fail("%v", err)
		return nil
	}
	opts := protocol.Options{Engine: eng, MaxRounds: req.MaxRounds}
	if engine == network.EngineAsync {
		if opts.Scheduler, err = network.NewScheduler(req.Schedule, eval.TrialSeed(req.Seed, 0, i)); err != nil {
			t.fail("%v", err)
			return nil
		}
	}
	if !attributed {
		// The re-run is a sibling of the op's handler span, outside the
		// breakdown.
		saved := t.stack
		t.stack = []int{len(t.spans)}
		t.spans = append(t.spans, span{op: t.op, name: "rerun", parent: -1, allocs: -1})
		defer func() { t.stack = saved }()
	}
	if !rc.corrupt.IsEmpty() {
		t.do("byzantine.build", false, func() {
			opts.Corrupt = rc.strategy.Build(in, rc.corrupt, network.Value("forged-by-"+req.Attack))
		})
	}
	var res *network.Result
	t.do("protocol."+p.Name(), attributed, func() {
		var procs map[int]network.Process
		t.do("protocol.assemble", false, func() { procs, err = p.Assemble(in, "1", opts) })
		if err != nil {
			return
		}
		cfg := network.Config{Graph: in.G, Processes: procs, Engine: eng, Scheduler: opts.Scheduler, MaxRounds: opts.MaxRounds}
		if !p.Caps().AllDecide {
			cfg.StopEarly = func(d map[int]network.Value) bool {
				_, ok := d[in.Receiver]
				return ok
			}
		}
		t.do("network."+engine, false, func() { res, err = network.Run(cfg) })
	})
	if err != nil {
		t.fail("%s on %s: %v", p.Name(), engine, err)
		return nil
	}
	return res
}

// watch replays a /v1/watch subscription revision by revision.
func (t *tracer) watch(body []byte) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var req server.InstanceRequest
	var err error
	t.do("server.decode", false, func() { err = decode(lines[0], &req) })
	if err != nil {
		t.fail("decode: %v", err)
		return
	}
	cur, level, _, ok := t.instance(req, "")
	if !ok {
		return
	}
	ctx := context.Background()
	incR, incZ := core.NewIncrementalCut(), zcpa.NewIncrementalCut()
	key := cur.CanonicalKey()
	for rev := 0; ; rev++ {
		t.revs++
		ev := server.WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		var cut core.RMTCut
		var zcut zcpa.ZppCut
		var found, zfound bool
		t.do("core.incremental", false, func() { cut, found, err = incR.CheckCtx(ctx, cur) })
		if err == nil {
			t.do("zcpa.incremental", false, func() { zcut, zfound, err = incZ.CheckCtx(ctx, cur) })
		}
		if err != nil {
			t.fail("rev %d: %v", rev, err)
			return
		}
		ev.PKA = verdict(found, cut.C1, cut.C2, cut.B)
		zv := verdict(zfound, zcut.C1, zcut.C2, zcut.B)
		ev.ZCPA = &zv
		var evBody []byte
		t.do("server.encode", false, func() { evBody, err = json.Marshal(ev) })
		t.do("server.decode", false, func() { err = json.Unmarshal(evBody, &server.WatchEvent{}) })
		if rev+1 >= len(lines) {
			break
		}
		var d instance.Delta
		t.do("server.decode", false, func() { err = decode(lines[rev+1], &d) })
		if err != nil {
			t.fail("rev %d: %v", rev+1, err)
			return
		}
		t.do("instance.delta", false, func() {
			if err = d.Validate(cur); err == nil {
				cur, err = gen.ApplyDelta(cur, d, level)
			}
		})
		if err != nil {
			t.fail("rev %d: %v", rev+1, err)
			return
		}
		t.do("instance.chain_key", false, func() { key = instance.ChainKey(key, d) })
	}
	r, f := incR.Stats()
	t.repR, t.freshR = t.repR+r, t.freshR+f
	r, f = incZ.Stats()
	t.repZ, t.freshZ = t.repZ+r, t.freshZ+f
}

// verdict renders a search outcome as the handler does.
func verdict(found bool, c1, c2, b nodeset.Set) server.Verdict {
	if !found {
		return server.Verdict{Solvable: true}
	}
	members := func(s nodeset.Set) []int {
		if m := s.Members(); m != nil {
			return m
		}
		return []int{}
	}
	return server.Verdict{Witness: &server.CutWitness{C1: members(c1), C2: members(c2), B: members(b)}}
}

// ---------------------------------------------------------------- metrics

// layerTimes sums, per span name, scaled self time (and inclusive time),
// allocations, and the attributed and handler totals.
type layerTimes struct {
	self, incl      map[string]float64 // ns
	allocs          map[string]int64
	handler, attrib float64 // ns
	residual        float64 // ns, handler minus layer time over the run, floored at zero
}

func (t *tracer) times(f []float64) layerTimes {
	lt := layerTimes{self: map[string]float64{}, incl: map[string]float64{}, allocs: map[string]int64{}}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end - s.start)
		}
	}
	for i, s := range t.spans {
		scale := f[s.op]
		d := float64(s.end-s.start) * scale
		self := d - child[i]*scale
		switch {
		case s.root:
			lt.handler += d
			lt.residual += self
		case s.parent >= 0:
			name := s.name
			if !s.attributed {
				name = "rerun:" + name
			}
			lt.self[name] += self
			lt.incl[name] += d
			if s.allocs >= 0 {
				lt.allocs[name] += s.allocs
			}
			if s.attributed {
				lt.attrib += self
			}
		}
	}
	// A replayed layer call is a second execution, so one op's layers can
	// outlast its handler call when GC work lands in the replay. Flooring
	// each op's difference at zero would keep that noise's upper half; the
	// run's total keeps both halves.
	lt.residual = max(0, lt.residual)
	return lt
}

// tracedRun is a traced run's two passes: untraced first, then traced.
type tracedRun struct {
	base, traced *runResult
	t            *tracer
	lt           layerTimes
	sh           shape
	failures     []failure
}

// trace runs the untraced reference pass (checked off the clock) and the
// traced pass over the same plan, each on a fresh server.
func trace(w workload, p *plan) *tracedRun {
	base := measure(p, nil, nil)
	base.srv.Close()
	tr := &tracedRun{base: base, t: newTracer(w.name)}
	tr.sh, tr.failures = check(w.name, p, base)
	tr.traced = measure(p, nil, tr.t.afterOp)
	tr.traced.srv.Close()
	tr.failures = append(tr.failures, tr.t.failures...)
	tr.lt = tr.t.times(scales(tr.traced.samples, len(p.ops)))
	if w.name == "watch-churn" {
		t := tr.t
		tr.sh = append(tr.sh,
			shapeItem{"core.incremental.repaired_ratio", ratio(t.repR, t.freshR), bandRepairedRatio[0], bandRepairedRatio[1]},
			shapeItem{"zcpa.incremental.repaired_ratio", ratio(t.repZ, t.freshZ), bandRepairedRatio[0], bandRepairedRatio[1]})
	}
	return tr
}

// accounted is the share of the traced handler time that the layers'
// self times plus the residual account for.
func (lt layerTimes) accounted() float64 { return (lt.attrib + lt.residual) / lt.handler }

func runTraced(w workload, p *plan, seed int64, stderr io.Writer) result {
	tr := trace(w, p)
	report(stderr, w, p, tr.base, tr.sh, tr.failures)
	fmt.Fprintf(stderr, "trace: layers %.1f%% + residual %.1f%% = %.1f%% of traced handler time (should be 90–110%%)\n",
		100*tr.lt.attrib/tr.lt.handler, 100*tr.lt.residual/tr.lt.handler, 100*tr.lt.accounted())
	if path, err := tr.t.write(w.name, seed); err != nil {
		fmt.Fprintln(stderr, "rmtdbench: spans not written:", err)
	} else {
		fmt.Fprintf(stderr, "trace: %d spans written to %s\n", len(tr.t.spans), path)
	}
	return result{
		correct:   len(tr.failures) == 0,
		attempted: len(p.ops),
		failed:    countFailedOps(tr.failures),
		metrics:   tr.t.layerMetrics(p, tr.base, tr.traced, tr.lt, tr.sh),
	}
}

// layerMetrics reduces the traced pass to the per-layer metrics; gc.* come
// from the untraced pass, whose allocation the replay does not inflate.
func (t *tracer) layerMetrics(p *plan, base, traced *runResult, lt layerTimes, sh shape) []metric {
	ops := float64(len(p.ops))
	perOp := func(name string) float64 { return lt.self[name] / ops / 1e6 }
	shapeValue := func(name string) float64 {
		for _, it := range sh {
			if it.name == name {
				return it.value
			}
		}
		return 0
	}
	ms := []metric{
		{"server.decode.ms_per_op", perOp("server.decode"), "ms"},
		{"cliutil.parse.ms_per_op", perOp("cliutil.parse"), "ms"},
		{"instance.build.ms_per_op", perOp("instance.build"), "ms"},
		{"instance.build.allocs_per_op", float64(lt.allocs["instance.build"]) / ops, "count"},
		{"instance.key.ms_per_op", perOp("instance.key"), "ms"},
		{"core.cut.ms_per_op", perOp("core.cut"), "ms"},
		{"core.cut.allocs_per_op", float64(lt.allocs["core.cut"]) / ops, "count"},
		{"zcpa.cut.ms_per_op", perOp("zcpa.cut"), "ms"},
		{"zcpa.cut.allocs_per_op", float64(lt.allocs["zcpa.cut"]) / ops, "count"},
		{"core.cut.found_ratio", per(float64(t.found), t.searched), "ratio"},
		{"feasibility.smt.ms_per_op", perOp("feasibility.smt"), "ms"},
		{"feasibility.mbrb.ms_per_op", perOp("feasibility.mbrb"), "ms"},
		{"server.encode.ms_per_op", perOp("server.encode"), "ms"},
		{"server.residual.ms_per_op", lt.residual / ops / 1e6, "ms"},
		{"server.cache_hit_ratio", base.timedHitRatio(p), "ratio"},
		{"protocol.assemble.ms_per_run", per(lt.incl["protocol.assemble"]/1e6, t.runs), "ms"},
		{"byzantine.build.ms_per_run", per(lt.incl["byzantine.build"]/1e6, t.runs), "ms"},
	}
	for _, f := range runFamilies {
		name := f.protocol
		n := t.runsBy[name]
		ms = append(ms,
			metric{"protocol." + name + ".ms_per_run", per(lt.incl["protocol."+name]/1e6, n), "ms"},
			metric{"protocol." + name + ".allocs_per_run", per(float64(lt.allocs["protocol."+name]), n), "count"},
			metric{"protocol." + name + ".share", shapeValue("protocol." + name + ".share"), "ratio"})
	}
	for _, e := range []string{network.EngineLockstep, network.EngineAsync} {
		ms = append(ms, metric{"network." + e + ".ms_per_run", per(lt.incl["network."+e]/1e6, t.runsBy["engine."+e]), "ms"})
	}
	ms = append(ms, metric{"network.goroutine.ms_per_run", per(lt.incl["rerun:network.goroutine"]/1e6, t.runsBy["engine.goroutine"]), "ms"})
	kops := ops / 1000
	ms = append(ms,
		metric{"network.messages_per_run", per(float64(t.messages), t.runs), "count"},
		metric{"network.rounds_per_run", per(float64(t.rounds), t.runs), "count"},
		metric{"instance.delta.ms_per_rev", per(lt.self["instance.delta"]/1e6, t.revs), "ms"},
		metric{"instance.chain_key.ms_per_rev", per(lt.self["instance.chain_key"]/1e6, t.revs), "ms"},
		metric{"core.incremental.ms_per_rev", per(lt.self["core.incremental"]/1e6, t.revs), "ms"},
		metric{"zcpa.incremental.ms_per_rev", per(lt.self["zcpa.incremental"]/1e6, t.revs), "ms"},
		metric{"core.incremental.repaired_ratio", ratio(t.repR, t.freshR), "ratio"},
		metric{"zcpa.incremental.repaired_ratio", ratio(t.repZ, t.freshZ), "ratio"},
		metric{"gc.cycles_per_kop", float64(base.gcCycles) / kops, "count"},
		metric{"gc.alloc_mb_per_kop", float64(base.gcBytes) / (1 << 20) / kops, "MB"},
		metric{"host.ref_ms", traced.refMs(), "ms"},
		metric{"trace.overhead_pct", 100 * (sumOf(traced.scaled)/sumOf(base.scaled) - 1), "%"},
		metric{"trace.attributed_share", lt.attrib / lt.handler, "ratio"},
	)
	return ms
}

// per is v per unit of n, or 0 when the workload has no such units.
func per(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// ratio is a ÷ (a + b): repaired ÷ (repaired + fresh).
func ratio(a, b int) float64 { return per(float64(a), a+b) }

// write saves the spans as JSON lines to .bench_build/trace/<workload>.jsonl
// under the working directory (the checkout root when run through run.sh),
// after a header line naming the workload and seed. Each traced run of a
// workload replaces the previous run's file, so repeated runs do not pile
// up tens of megabytes each.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":%d}\n", workload, seed, len(t.spans))
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"op":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"allocs":%d}`+"\n",
			s.op, s.name, s.parent, s.start, s.end, s.allocs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

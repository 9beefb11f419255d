package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// solvableButterfly is the paper's quick-start instance: three disjoint
// dealer→receiver paths against the structure {{1},{2},{3}} — solvable in
// both the partial-knowledge and ad hoc characterizations.
const solvableButterfly = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.LogWriter == nil {
		opts.LogWriter = io.Discard
	}
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestProtocolsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts, "/v1/protocols")
	if code != http.StatusOK {
		t.Fatalf("protocols: %d %s", code, body)
	}
	var resp ProtocolsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]ProtocolInfo)
	for _, p := range resp.Protocols {
		names[p.Name] = p
	}
	for _, want := range []string{"pka", "zcpa", "ppa", "broadcast"} {
		if _, ok := names[want]; !ok {
			t.Errorf("protocol %q missing from %v", want, resp.Protocols)
		}
	}
	if !names["ppa"].NeedsFullKnowledge {
		t.Error("ppa should declare needs_full_knowledge")
	}
	if !names["broadcast"].AllDecide {
		t.Error("broadcast should declare all_decide")
	}
	if len(resp.Engines) != 3 || len(resp.Schedules) == 0 || len(resp.Attacks) == 0 || len(resp.Knowledge) == 0 {
		t.Fatalf("incomplete inventory: %+v", resp)
	}
}

// TestFeasibilityMBRBVerdict pins the message-adversary surface of the
// endpoint: complete-graph instances carry the n > 3t + 2d verdict at the
// requested budget (the K6 pair flips exactly at d), sparse instances omit
// it, and distinct budgets must not share cache entries.
func TestFeasibilityMBRBVerdict(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// K6 with singleton corruptions: n=6, t=1, so d=1 is feasible
	// (6 > 3+2) and d=2 is not (6 > 3+4 fails).
	const k6 = `"graph":"0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5","structure":"1;2;3;4","dealer":0,"receiver":5`
	for _, c := range []struct {
		d        int
		feasible bool
	}{{0, true}, {1, true}, {2, false}} {
		code, body := post(t, ts, "/v1/feasibility", fmt.Sprintf(`{%s,"ma_budget":%d}`, k6, c.d))
		if code != http.StatusOK {
			t.Fatalf("feasibility d=%d: %d %s", c.d, code, body)
		}
		var resp FeasibilityResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.MBRB == nil {
			t.Fatalf("d=%d: complete instance has no mbrb verdict: %s", c.d, body)
		}
		if resp.MBRB.N != 6 || resp.MBRB.T != 1 || resp.MBRB.D != c.d || resp.MBRB.Feasible != c.feasible {
			t.Fatalf("d=%d: mbrb verdict %+v, want n=6 t=1 feasible=%v", c.d, resp.MBRB, c.feasible)
		}
	}

	// Sparse instances omit the verdict — the bound is only tight on
	// complete networks.
	code, body := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusOK {
		t.Fatalf("feasibility: %d %s", code, body)
	}
	var resp FeasibilityResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MBRB != nil {
		t.Fatalf("sparse instance grew an mbrb verdict: %+v", resp.MBRB)
	}

	if code, body := post(t, ts, "/v1/feasibility", `{"graph":"0-1","dealer":0,"receiver":1,"ma_budget":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative budget: %d %s", code, body)
	}
}

func TestFeasibilityVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	code, body := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusOK {
		t.Fatalf("feasibility: %d %s", code, body)
	}
	var resp FeasibilityResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", resp.Key)
	}
	if !resp.PKA.Solvable || resp.PKA.Witness != nil {
		t.Fatalf("butterfly should be PKA-solvable: %+v", resp.PKA)
	}
	if resp.ZCPA == nil || !resp.ZCPA.Solvable {
		t.Fatalf("butterfly should be ZCPA-solvable: %+v", resp.ZCPA)
	}

	// A single path through one corruptible node is cut by {1} twice.
	code, body = post(t, ts, "/v1/feasibility", `{"graph":"0-1 1-2","structure":"1","dealer":0,"receiver":2}`)
	if code != http.StatusOK {
		t.Fatalf("feasibility: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PKA.Solvable || resp.PKA.Witness == nil {
		t.Fatalf("path instance should have an RMT-cut: %+v", resp.PKA)
	}
	if resp.ZCPA == nil || resp.ZCPA.Solvable || resp.ZCPA.Witness == nil {
		t.Fatalf("path instance should have a 𝒵-pp cut: %+v", resp.ZCPA)
	}

	// Full knowledge: no ZCPA verdict (the ad hoc condition doesn't apply).
	code, body = post(t, ts, "/v1/feasibility", `{"graph":"0-1 1-2","structure":"1","knowledge":"full","dealer":0,"receiver":2}`)
	if code != http.StatusOK {
		t.Fatalf("feasibility: %d %s", code, body)
	}
	resp = FeasibilityResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ZCPA != nil {
		t.Fatalf("full-knowledge verdict should omit zcpa: %+v", resp.ZCPA)
	}
	if resp.Knowledge != "full" {
		t.Fatalf("knowledge = %q", resp.Knowledge)
	}
}

// TestFeasibilityCanonicalCaching: permuted spellings of the same instance
// share one cache entry — the second spelling is a hit with an identical
// body, and the hit-ratio metric records it.
func TestFeasibilityCanonicalCaching(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	code, first := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusOK {
		t.Fatalf("first: %d %s", code, first)
	}
	// Same instance: edges reordered and flipped, structure reordered.
	permuted := `{"graph":"4-3 2-0 1-0 3-0 4-1 2-4","structure":"3;2;1","dealer":0,"receiver":4}`
	code, second := post(t, ts, "/v1/feasibility", permuted)
	if code != http.StatusOK {
		t.Fatalf("second: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("permuted spelling produced a different body:\n%s\nvs\n%s", first, second)
	}
	if ratio := s.CacheHitRatio(); ratio != 0.5 {
		t.Fatalf("hit ratio after 1 miss + 1 hit = %v, want 0.5", ratio)
	}
}

// TestFeasibilityCacheSeparatesKnowledgeLevels: on a triangle-free graph
// the radius-1 view coincides with the ad hoc one, so the two levels share
// one canonical instance hash — but their feasibility bodies differ (the
// "knowledge" label and the adhoc-only ZCPA verdict). A radius1 request
// priming the cache must not cause the adhoc request to be served the
// radius1 body.
func TestFeasibilityCacheSeparatesKnowledgeLevels(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// The 4-cycle 0-1-3-2-0 is triangle-free.
	const square = `"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3`
	code, radius1 := post(t, ts, "/v1/feasibility", fmt.Sprintf(`{%s,"knowledge":"radius1"}`, square))
	if code != http.StatusOK {
		t.Fatalf("radius1: %d %s", code, radius1)
	}
	code, adhoc := post(t, ts, "/v1/feasibility", fmt.Sprintf(`{%s}`, square))
	if code != http.StatusOK {
		t.Fatalf("adhoc: %d %s", code, adhoc)
	}
	var r1, ah FeasibilityResponse
	if err := json.Unmarshal(radius1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(adhoc, &ah); err != nil {
		t.Fatal(err)
	}
	if r1.Key != ah.Key {
		t.Fatalf("fixture no longer exercises the collision: canonical keys differ (%s vs %s)", r1.Key, ah.Key)
	}
	if r1.Knowledge != "radius1" || r1.ZCPA != nil {
		t.Fatalf("radius1 body mislabeled: %s", radius1)
	}
	if ah.Knowledge != "adhoc" {
		t.Fatalf("adhoc request served knowledge %q (cache key collision across levels)", ah.Knowledge)
	}
	if ah.ZCPA == nil {
		t.Fatalf("adhoc body is missing the ZCPA verdict: %s", adhoc)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,
		"protocol":"pka","value":"attack at dawn","corrupt":[2],"attack":"value-flip"}`
	code, body := post(t, ts, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trials) != 1 {
		t.Fatalf("trials = %d", len(resp.Trials))
	}
	tr := resp.Trials[0]
	if !tr.Decided || tr.Decision != "attack at dawn" || !tr.Correct {
		t.Fatalf("receiver outcome: %+v", tr)
	}
	if err := tr.Metrics.Reconcile(); err != nil {
		t.Fatalf("metrics do not reconcile: %v", err)
	}
}

func TestRunAsyncTrials(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,
		"engine":"async","schedule":"random","seed":7,"trials":5}`
	code, body := post(t, ts, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trials) != 5 {
		t.Fatalf("trials = %d", len(resp.Trials))
	}
	seeds := make(map[int64]bool)
	for i, tr := range resp.Trials {
		if !tr.Decided || tr.Decision != "1" {
			t.Fatalf("trial %d undecided or wrong: %+v", i, tr)
		}
		if err := tr.Metrics.Reconcile(); err != nil {
			t.Fatalf("trial %d metrics: %v", i, err)
		}
		seeds[tr.Seed] = true
	}
	if len(seeds) != 5 {
		t.Fatalf("derived seeds collide: %v", seeds)
	}
}

func TestRunTranscript(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := `{"graph":"0-1 1-2","dealer":0,"receiver":2,"protocol":"zcpa","transcript":true}`
	code, body := post(t, ts, "/v1/run", req)
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	events := resp.Trials[0].Transcript
	if len(events) == 0 {
		t.Fatal("transcript requested but empty")
	}
	for _, ev := range events {
		var e struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(ev, &e); err != nil || e.Ev == "" {
			t.Fatalf("malformed event %s: %v", ev, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTrials: 8})
	base := `"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3`
	cases := []struct {
		name string
		body string
	}{
		{"empty graph", `{"structure":"1"}`},
		{"bad graph", `{"graph":"0--","dealer":0,"receiver":1}`},
		{"bad structure", `{"graph":"0-1","structure":"x","dealer":0,"receiver":1}`},
		{"bad knowledge", fmt.Sprintf(`{%s,"knowledge":"psychic"}`, base)},
		{"unknown protocol", fmt.Sprintf(`{%s,"protocol":"nope"}`, base)},
		{"unknown engine", fmt.Sprintf(`{%s,"engine":"nope"}`, base)},
		{"unknown schedule", fmt.Sprintf(`{%s,"engine":"async","schedule":"nope"}`, base)},
		{"schedule without async", fmt.Sprintf(`{%s,"schedule":"random"}`, base)},
		{"inadmissible corruption", fmt.Sprintf(`{%s,"corrupt":[1,2]}`, base)},
		{"unknown attack", fmt.Sprintf(`{%s,"corrupt":[1],"attack":"nope"}`, base)},
		{"too many trials", fmt.Sprintf(`{%s,"trials":9}`, base)},
		{"negative max_rounds", fmt.Sprintf(`{%s,"max_rounds":-1}`, base)},
		{"ppa without full knowledge", fmt.Sprintf(`{%s,"protocol":"ppa"}`, base)},
		{"unknown field", fmt.Sprintf(`{%s,"bogus":1}`, base)},
	}
	for _, tc := range cases {
		code, body := post(t, ts, "/v1/run", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d %s, want 400", tc.name, code, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s", tc.name, body)
		}
	}
}

// TestRunCapsRejectionIs400: a protocol that refuses the instance at
// assembly (a protocol.CapsError) is a usage error, so /v1/run answers 400
// with the protocol's reason, as rmtsim exits 2: mbrb on a sparse graph,
// smt with every D–R path corruptible, and PPA without full knowledge. The
// first two answered 500, and a rejection is never cached as a body.
func TestRunCapsRejectionIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct{ name, body, reason string }{
		{"mbrb on the triple path", `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,"protocol":"mbrb"}`, "mbrb: network is not complete"},
		{"smt on a covered diamond", `{"graph":"0-1 0-2 1-3 2-3","structure":"1,2","dealer":0,"receiver":3,"protocol":"smt"}`, "smt: "},
		{"ppa without full knowledge", `{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3,"protocol":"ppa"}`, "ppa: "},
	}
	for _, tc := range cases {
		for attempt := 0; attempt < 2; attempt++ {
			code, body := post(t, ts, "/v1/run", tc.body)
			var e struct {
				Error string `json:"error"`
			}
			if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, tc.reason) {
				t.Errorf("%s, attempt %d: got %d %s, want 400 naming %q", tc.name, attempt, code, body, tc.reason)
			}
		}
	}
}

// TestRunRejectsNonNodeCorrupt: a corrupt ID that is not a node of G gets
// a 400 before any set is built. A negative ID used to panic the handler
// (the client saw EOF), and a huge one sized a bitset by its value.
func TestRunRejectsNonNodeCorrupt(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := `"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3`
	for _, corrupt := range []string{"-1", "68719476736"} {
		start := time.Now()
		code, body := post(t, ts, "/v1/run", fmt.Sprintf(`{%s,"corrupt":[%s]}`, base, corrupt))
		if code != http.StatusBadRequest || !strings.Contains(string(body), "not a node of G") {
			t.Errorf("corrupt [%s]: got %d %s, want 400 naming the non-node", corrupt, code, body)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("corrupt [%s]: rejection took %v", corrupt, elapsed)
		}
	}
	code, body := post(t, ts, "/v1/run", fmt.Sprintf(`{%s,"corrupt":[1]}`, base))
	if code != http.StatusOK {
		t.Fatalf("request after the rejections: %d %s", code, body)
	}
}

// TestRunBytesIdenticalAcrossWorkerCounts: the same request served by a
// single-worker and a many-worker daemon produces byte-identical JSON — the
// determinism guarantee the cache's first-body-wins rule builds on.
func TestRunBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	req := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,
		"engine":"async","schedule":"lifo","seed":3,"trials":6,"corrupt":[1],"attack":"silent"}`
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, Options{Workers: workers})
		code, body := post(t, ts, "/v1/run", req)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, code, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("bodies differ across worker counts:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestTrailingDataRejected: a body, or a watch line, is one JSON document
// and nothing but whitespace after it. A lone daemon and a fleet router
// answer each body alike: 400 before a watch stream starts, and an in-band
// error line for a delta line that carries a second document, which a
// decoder that stops after the first value would silently drop.
func TestTrailingDataRejected(t *testing.T) {
	_, lone := newTestServer(t, Options{})
	_, _, rt := newFleet(t, 2)
	fleet := httptest.NewServer(rt)
	defer fleet.Close()
	for _, tc := range []struct {
		path, body string
		code       int
		errorRev   int // the rev of a watch stream's error line; -1 for none
	}{
		{"/v1/feasibility", solvableButterfly + "garbage", http.StatusBadRequest, -1},
		{"/v1/feasibility", solvableButterfly + ` {"x":1}`, http.StatusBadRequest, -1},
		{"/v1/feasibility", solvableButterfly + " \n\t\n", http.StatusOK, -1},
		{"/v1/run", solvableButterfly + "garbage", http.StatusBadRequest, -1},
		{"/v1/run", solvableButterfly + ` {"x":1}`, http.StatusBadRequest, -1},
		{"/v1/run", solvableButterfly + " \n", http.StatusOK, -1},
		{"/v1/watch", solvableButterfly + "garbage\n", http.StatusBadRequest, -1},
		{"/v1/watch", solvableButterfly + ` {"x":1}` + "\n", http.StatusBadRequest, -1},
		{"/v1/watch", solvableButterfly + "\n" + `{"add_edges":[[1,4]]} {"remove_nodes":[2]}` + "\n", http.StatusOK, 1},
		{"/v1/watch", solvableButterfly + "\n" + `{"remove_nodes":[2]}` + " \t\n", http.StatusOK, -1},
	} {
		for name, ts := range map[string]*httptest.Server{"daemon": lone, "router": fleet} {
			code, body := post(t, ts, tc.path, tc.body)
			if code != tc.code {
				t.Errorf("%s %s %q: %d %s, want %d", name, tc.path, tc.body, code, body, tc.code)
				continue
			}
			if tc.path != "/v1/watch" || code != http.StatusOK {
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(body)), "\n")
			var we watchError
			failed := json.Unmarshal([]byte(lines[len(lines)-1]), &we) == nil && we.Error != ""
			if !strings.HasPrefix(lines[0], `{"rev":0,`) || failed != (tc.errorRev >= 0) || failed && we.Rev != tc.errorRev {
				t.Errorf("%s %s %q: stream %s, want rev 0 and an error line at rev %d", name, tc.path, tc.body, body, tc.errorRev)
			}
		}
	}
}

// limitedTiers returns a lone daemon and a fleet router over one shard,
// each reading bodies and lines of at most limit bytes.
func limitedTiers(t *testing.T, limit int64) map[string]*httptest.Server {
	t.Helper()
	_, lone := newTestServer(t, Options{MaxBodyBytes: limit})
	_, shard := newTestServer(t, Options{MaxBodyBytes: limit})
	rt, err := NewRouter(RouterOptions{Shards: []string{shard.URL}, MaxBodyBytes: limit, LogWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	fleet := httptest.NewServer(rt)
	t.Cleanup(fleet.Close)
	return map[string]*httptest.Server{"daemon": lone, "router": fleet}
}

// TestOversizeBodiesAnswer413: a body longer than MaxBodyBytes answers 413
// with a JSON error that names the limit, on a lone daemon and through a
// router, even when its JSON document ends inside the limit; a body of
// exactly the limit is served.
func TestOversizeBodiesAnswer413(t *testing.T) {
	const limit = 64
	doc := `{"graph":"0-1 1-2","dealer":0,"receiver":2}`
	pad := func(n int) string { return doc + strings.Repeat(" ", n-len(doc)) }
	for name, ts := range limitedTiers(t, limit) {
		for _, path := range []string{"/v1/feasibility", "/v1/run"} {
			for _, tc := range []struct {
				body string
				code int
			}{
				{doc + strings.Repeat(" ", 40) + "garbage", http.StatusRequestEntityTooLarge},
				{pad(limit + 1), http.StatusRequestEntityTooLarge},
				{pad(limit), http.StatusOK},
			} {
				code, body := post(t, ts, path, tc.body)
				if code != tc.code {
					t.Errorf("%s %s, %d-byte body: %d %s, want %d", name, path, len(tc.body), code, body, tc.code)
					continue
				}
				var e struct{ Error string }
				if code == http.StatusRequestEntityTooLarge && (json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "64-byte limit")) {
					t.Errorf("%s %s: 413 body %s does not name the limit", name, path, body)
				}
			}
		}
	}
}

// TestOversizeWatchInstanceLine: a watch whose instance line is longer
// than MaxBodyBytes answers 413 naming the limit on both tiers, a line of
// exactly the limit is served, and a delta line over the limit still ends
// an open stream with an in-band error line.
func TestOversizeWatchInstanceLine(t *testing.T) {
	const limit = 64
	doc := `{"graph":"0-1 1-2","dealer":0,"receiver":2}`
	pad := func(line string, n int) string { return line + strings.Repeat(" ", n-len(line)) }
	for name, ts := range limitedTiers(t, limit) {
		code, lines := postWatch(t, ts, pad(doc, limit+1)+"\n")
		var e struct{ Error string }
		if code != http.StatusRequestEntityTooLarge || len(lines) != 1 || json.Unmarshal(lines[0], &e) != nil || !strings.Contains(e.Error, "64-byte limit") {
			t.Errorf("%s: oversize instance line: %d %s, want 413 naming the limit", name, code, bytes.Join(lines, nil))
		}
		if code, lines = postWatch(t, ts, pad(doc, limit)+"\n"); code != http.StatusOK || len(lines) != 1 || !bytes.HasPrefix(lines[0], []byte(`{"rev":0,`)) {
			t.Errorf("%s: instance line of the limit: %d %s", name, code, bytes.Join(lines, nil))
		}
		code, lines = postWatch(t, ts, doc+"\n"+pad(`{"add_nodes":[3]}`, limit+1)+"\n")
		var we watchError
		if code != http.StatusOK || len(lines) != 2 || json.Unmarshal(lines[1], &we) != nil || we.Rev != 1 || we.Error == "" {
			t.Errorf("%s: oversize delta line: %d %s, want rev 0 and an error line at rev 1", name, code, bytes.Join(lines, []byte("\n")))
		}
	}
}

// holdGate admits running computations that each take a running slot and
// waiting ones queued behind them, all blocking until release is closed,
// and returns once the gate holds them all.
func holdGate(t *testing.T, s *Server, running, waiting int, release <-chan struct{}) {
	t.Helper()
	for i := 0; i < running+waiting; i++ {
		go s.gate.do(context.Background(), func() { <-release })
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.depth() < running+waiting || len(s.gate.running) < running {
		if time.Now().After(deadline) {
			t.Fatalf("gate holds %d computations, %d running; want %d, %d", s.gate.depth(), len(s.gate.running), running+waiting, running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadSheds: with the single running slot held and the queue full,
// an uncached request is answered 429 instead of queuing unboundedly.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	holdGate(t, s, 1, 1, release)
	code, body := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated daemon answered %d %s, want 429", code, body)
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
}

// TestDeadlineAnswers504: a request stuck behind a held running slot is
// answered 504 when its deadline passes, and never starts: the freed slot
// goes to the retry, which computes and succeeds.
func TestDeadlineAnswers504(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	holdGate(t, s, 1, 0, release)
	code, body := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stuck request answered %d %s, want 504", code, body)
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d", got)
	}
	close(release)
	// The held computation returns its slot; the retry recomputes.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if code, _ := post(t, ts, "/v1/feasibility", solvableButterfly); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry after drain never succeeded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGateBoundsAndDrains: with Workers 2 and QueueDepth 3, never more
// than 2 computations run at once and never more than 5 are admitted —
// the next is answered 429 —; a computation whose deadline passes while
// it waits never starts (a worker pool ran such jobs later, on a dead
// context); and Close returns only after every admitted computation has
// finished, refusing new ones meanwhile. tier1 runs it under -race.
func TestGateBoundsAndDrains(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 3, RequestTimeout: 50 * time.Millisecond, LogWriter: io.Discard})
	var running, peak, finished atomic.Int32
	block := func(release <-chan struct{}) func() {
		return func() {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			<-release
			running.Add(-1)
			finished.Add(1)
		}
	}
	admit := func(release <-chan struct{}, want int) {
		t.Helper()
		go s.gate.do(context.Background(), block(release))
		deadline := time.Now().Add(5 * time.Second)
		for s.gate.depth() < want {
			if time.Now().After(deadline) {
				t.Fatalf("gate holds %d computations, want %d", s.gate.depth(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	release := make(chan struct{})
	for i := 1; i <= 4; i++ {
		admit(release, i)
	}
	// Two run and two wait; a fifth waits until its deadline passes.
	var started atomic.Bool
	_, err := s.compute(context.Background(), func(context.Context) ([]byte, error) {
		started.Store(true)
		return []byte("{}\n"), nil
	})
	if !errors.Is(err, errDeadline) || started.Load() {
		t.Fatalf("a computation whose deadline passed while it waited: err %v, started %t", err, started.Load())
	}
	admit(release, 5)
	if _, err := s.compute(context.Background(), func(context.Context) ([]byte, error) { return nil, nil }); !errors.Is(err, errOverloaded) {
		t.Fatalf("a sixth computation: %v, want overloaded", err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feasibility", strings.NewReader(solvableButterfly)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("a request past 5 admitted answered %d %s, want 429", rec.Code, rec.Body.Bytes())
	}
	close(release)
	for finished.Load() < 5 {
		time.Sleep(time.Millisecond)
	}

	// Close waits for two running and two waiting computations, and
	// refuses a new one from the moment it begins, though one slot is free.
	release = make(chan struct{})
	for i := 1; i <= 4; i++ {
		admit(release, i)
	}
	closed := make(chan int32)
	go func() {
		s.Close()
		closed <- finished.Load()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		probe, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		err := s.gate.do(probe, func() { t.Error("a computation started after Close began") })
		cancel()
		if errors.Is(err, errOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never stopped after Close began")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted computations were blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if got := <-closed; got != 9 {
		t.Fatalf("Close returned after %d of 9 computations finished", got)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d computations ran at once, Workers is 2", p)
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestRunTrialStopsAtDeadline: a /v1/run trial polls the request deadline
// once per round, not only between trials. The spammer never goes quiet
// and the receiver never decides, so with max_rounds in the millions the
// one trial would hold the only worker for seconds after its request timed
// out; the request right after it must be served, not answered 504.
func TestRunTrialStopsAtDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	code, body := post(t, ts, "/v1/run", `{"graph":"0-1 1-2","structure":"1","dealer":0,"receiver":2,"corrupt":[1],"attack":"spammer","max_rounds":3000000}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("never-deciding run answered %d %s, want 504", code, body)
	}
	if code, body := post(t, ts, "/v1/run", solvableButterfly); code != http.StatusOK {
		t.Fatalf("the request after it answered %d %s, want 200", code, body)
	}
}

// TestRunRoundAnswers504AtDeadline: the RMT-PKA receiver polls the run's
// context once per candidate of its search, not only the engine once per
// round, so a run stuck inside one round answers 504 at the deadline. D
// reaches R through 20 relays, 𝒵's two sets split them in halves, and a
// value flipper holds one half: no candidate certifies, and in round 2
// the receiver walks every subset of the 20 relays, which takes 8 s on a
// 2-vCPU VM without the poll. With max_rounds 2 that round is the last,
// and the run must still end with the deadline's error, not with the
// undecided result of a search that gave up.
func TestRunRoundAnswers504AtDeadline(t *testing.T) {
	const k = 20
	var edges, a, b []string
	for v := 1; v <= k; v++ {
		edges = append(edges, fmt.Sprintf("0-%d %d-%d", v, v, k+1))
		if v <= k/2 {
			a = append(a, fmt.Sprint(v))
		} else {
			b = append(b, fmt.Sprint(v))
		}
	}
	s, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: 100 * time.Millisecond})
	for i, rounds := range []string{"", `,"max_rounds":2`} {
		body := fmt.Sprintf(`{"graph":%q,"structure":"%s;%s","dealer":0,"receiver":%d,"corrupt":[%s],"attack":"value-flip"%s}`,
			strings.Join(edges, " "), strings.Join(a, ","), strings.Join(b, ","), k+1, strings.Join(a, ","), rounds)
		start := time.Now()
		code, resp := post(t, ts, "/v1/run", body)
		elapsed := time.Since(start)
		if code != http.StatusGatewayTimeout || elapsed > 2*time.Second {
			t.Fatalf("run%s answered %d %s after %v at a 100ms deadline, want 504 at once", rounds, code, resp, elapsed)
		}
		if got := s.metrics.timeouts.Load(); got != int64(i+1) {
			t.Fatalf("timeouts counter = %d", got)
		}
		t.Logf("run%s: 504 after %v", rounds, elapsed)
	}
}

// TestCompleteGraphSearchIsCheap: the cut search walks only receiver sides
// that avoid the dealer's neighbors, so on K_28, where the receiver is one,
// it has none to walk and answers at once. A walk that stepped into the
// 2^26 sets holding a neighbor of the dealer would poll no deadline there:
// the request would answer 504 and hold the only worker for seconds after.
func TestCompleteGraphSearchIsCheap(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	var edges []string
	for u := 0; u < 28; u++ {
		for v := u + 1; v < 28; v++ {
			edges = append(edges, fmt.Sprintf("%d-%d", u, v))
		}
	}
	body := fmt.Sprintf(`{"graph":%q,"structure":"2;3","dealer":0,"receiver":27}`, strings.Join(edges, " "))
	code, resp := post(t, ts, "/v1/feasibility", body)
	if code != http.StatusOK {
		t.Fatalf("K_28 answered %d %s, want 200", code, resp)
	}
	var got struct {
		PKA  struct{ Solvable bool } `json:"pka"`
		MBRB *json.RawMessage        `json:"mbrb"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatal(err)
	}
	if !got.PKA.Solvable || got.MBRB == nil {
		t.Fatalf("K_28 answered %s, want a solvable pka verdict and an mbrb verdict", resp)
	}
	if code, resp := post(t, ts, "/v1/feasibility", solvableButterfly); code != http.StatusOK {
		t.Fatalf("the request after it answered %d %s, want 200", code, resp)
	}
}

// TestSMTVerdictAnswers504AtDeadline: the SMT verdict's context error
// answers 504, as the cut search's does. The deadline has passed before
// the computation starts; the free running slot runs it anyway, and the
// verdict, the first to poll, fails before its first BFS. That it polls
// once per maximal listening set is TestSMTVerdictPollsOncePerSet's.
func TestSMTVerdictAnswers504AtDeadline(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, RequestTimeout: time.Nanosecond})
	code, body := post(t, ts, "/v1/feasibility", `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","listen":"1;2;3","dealer":0,"receiver":4}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("answered %d %s past the deadline, want 504", code, body)
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d", got)
	}
}

// TestClientCancelNotCountedAsTimeout: a client that disconnects while its
// request waits for a running slot is recorded in
// rmtd_client_cancels_total (and logged as 499), not in
// rmtd_timeouts_total — the timeout metric must only count genuine
// compute-deadline expiries.
func TestClientCancelNotCountedAsTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	defer close(release)
	holdGate(t, s, 1, 0, release)
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/feasibility", strings.NewReader(solvableButterfly))
		if err != nil {
			errc <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request queue behind the held slot
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request did not error on the client side")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.cancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client cancel was never recorded in rmtd_client_cancels_total")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.timeouts.Load(); got != 0 {
		t.Fatalf("timeouts counter = %d, want 0 — a client cancel is not a compute timeout", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts, "/v1/feasibility", solvableButterfly)
	post(t, ts, "/v1/feasibility", solvableButterfly)
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`rmtd_requests_total{endpoint="/v1/feasibility",code="200"} 2`,
		"rmtd_cache_hits_total 1",
		"rmtd_cache_misses_total 1",
		"rmtd_cache_hit_ratio 0.5",
		"rmtd_client_cancels_total 0",
		"rmtd_workers",
		"rmtd_queue_depth",
		`rmtd_request_seconds_count{endpoint="/v1/feasibility"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestRequestLog: each request produces one JSON log line with the cache
// disposition.
func TestRequestLog(t *testing.T) {
	var buf syncBuffer
	s := New(Options{LogWriter: &buf})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	post(t, ts, "/v1/feasibility", solvableButterfly)
	post(t, ts, "/v1/feasibility", solvableButterfly)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d:\n%s", len(lines), buf.String())
	}
	var entries []struct {
		Path   string `json:"path"`
		Status int    `json:"status"`
		Cache  string `json:"cache"`
	}
	for _, line := range lines {
		var e struct {
			Path   string `json:"path"`
			Status int    `json:"status"`
			Cache  string `json:"cache"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		entries = append(entries, e)
	}
	if entries[0].Cache != "miss" || entries[1].Cache != "hit" {
		t.Fatalf("cache dispositions: %+v", entries)
	}
	if entries[0].Status != 200 || entries[0].Path != "/v1/feasibility" {
		t.Fatalf("log entry: %+v", entries[0])
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

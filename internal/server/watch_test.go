package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The watch tests drive the butterfly through a scripted churn history:
//
//	rev 0  base butterfly                       solvable      (event)
//	rev 1  +edge 1-2 (a chord)                  solvable      (silent)
//	rev 2  -node 3 (kills the third path)       unsolvable    (event)
//	rev 3  +node 3 re-wired 0-3, 3-4            solvable      (event)
//
// Removing node 3 leaves only the paths through nodes 1 and 2, and the
// classes {1} and {2} jointly cut them — an RMT-cut, so both PKA and ZCPA
// flip to unsolvable. Re-adding node 3 restores a third path whose relay is
// no longer in the (restricted) structure, so both flip back.
var watchDeltas = []string{
	`{"add_edges":[[1,2]]}`,
	`{"remove_nodes":[3]}`,
	`{"add_nodes":[3],"add_edges":[[0,3],[3,4]]}`,
}

func watchBody(instanceJSON string, deltas ...string) string {
	return instanceJSON + "\n" + strings.Join(deltas, "\n") + "\n"
}

// postWatch uploads a complete subscription (instance line plus all deltas)
// and returns the status code and the response split into ndjson lines.
func postWatch(t *testing.T, ts *httptest.Server, body string) (int, [][]byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/watch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
	}
	return resp.StatusCode, lines
}

func decodeEvents(t *testing.T, lines [][]byte) []WatchEvent {
	t.Helper()
	events := make([]WatchEvent, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &events[i]); err != nil {
			t.Fatalf("line %d %s: %v", i, line, err)
		}
	}
	return events
}

// TestWatchStreamsVerdictChanges: the subscription reports rev 0 and then
// exactly the revisions whose solvability verdict flipped — the silent
// chord addition at rev 1 must not produce a line.
func TestWatchStreamsVerdictChanges(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, lines := postWatch(t, ts, watchBody(solvableButterfly, watchDeltas...))
	if code != http.StatusOK {
		t.Fatalf("watch: %d %s", code, bytes.Join(lines, []byte("\n")))
	}
	events := decodeEvents(t, lines)
	if len(events) != 3 {
		t.Fatalf("want 3 verdict-change events (rev 0, 2, 3), got %d:\n%s", len(events), bytes.Join(lines, []byte("\n")))
	}
	type want struct {
		rev      int
		solvable bool
	}
	for i, w := range []want{{0, true}, {2, false}, {3, true}} {
		ev := events[i]
		if ev.Rev != w.rev {
			t.Errorf("event %d: rev %d, want %d", i, ev.Rev, w.rev)
		}
		if ev.PKA.Solvable != w.solvable {
			t.Errorf("rev %d: pka solvable = %v, want %v", ev.Rev, ev.PKA.Solvable, w.solvable)
		}
		if ev.ZCPA == nil || ev.ZCPA.Solvable != w.solvable {
			t.Errorf("rev %d: zcpa verdict = %+v, want solvable %v", ev.Rev, ev.ZCPA, w.solvable)
		}
		if ev.Knowledge != "adhoc" {
			t.Errorf("rev %d: knowledge %q", ev.Rev, ev.Knowledge)
		}
		if len(ev.Key) != 64 {
			t.Errorf("rev %d: key %q is not a sha256 hex digest", ev.Rev, ev.Key)
		}
	}
	// Rev 0 is keyed by the base canonical hash; later revisions by chain
	// keys, all distinct from the base and from each other.
	keys := map[string]bool{}
	for _, ev := range events {
		keys[ev.Key] = true
	}
	if len(keys) != 3 {
		t.Fatalf("revision keys collide: %v", keys)
	}
	if !events[1].PKA.Solvable && events[1].PKA.Witness == nil {
		t.Fatal("unsolvable revision carries no cut witness")
	}
}

// TestWatchFullKnowledgeOmitsZCPA: the ad hoc characterization doesn't apply
// at full knowledge, so watch events mirror the feasibility body shape.
func TestWatchFullKnowledgeOmitsZCPA(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","knowledge":"full","dealer":0,"receiver":4}`
	code, lines := postWatch(t, ts, watchBody(base, `{"remove_nodes":[3]}`))
	if code != http.StatusOK {
		t.Fatalf("watch: %d", code)
	}
	events := decodeEvents(t, lines)
	if len(events) != 2 {
		t.Fatalf("want events at rev 0 and 1, got %d", len(events))
	}
	for _, ev := range events {
		if ev.ZCPA != nil {
			t.Fatalf("full-knowledge event carries a zcpa verdict: %+v", ev)
		}
		if ev.Knowledge != "full" {
			t.Fatalf("knowledge = %q", ev.Knowledge)
		}
	}
}

// TestWatchInteractive drives the subscription as a genuine full-duplex
// conversation: each verdict line is read back before the next delta is
// written, which only works if the handler flushes every event through the
// instrumentation wrapper (statusRecorder must expose Unwrap).
func TestWatchInteractive(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/watch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	if _, err := io.WriteString(pw, solvableButterfly+"\n"); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response header before any delta was sent")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	readEvent := func() WatchEvent {
		t.Helper()
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read event: %v", err)
		}
		var ev WatchEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event %s: %v", line, err)
		}
		return ev
	}
	if ev := readEvent(); ev.Rev != 0 || !ev.PKA.Solvable {
		t.Fatalf("rev 0 event: %+v", ev)
	}
	// The rev 0 line arrived while the request body is still open — now push
	// a flipping delta and expect its event on the same response.
	if _, err := io.WriteString(pw, `{"remove_nodes":[3]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if ev := readEvent(); ev.Rev != 1 || ev.PKA.Solvable {
		t.Fatalf("rev 1 event: %+v", ev)
	}
	pw.Close()
	if _, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("stream after client close: %v, want EOF", err)
	}
}

// TestWatchByteIdentityAcrossSubscriptions: replaying the same subscription
// serves every revision out of the result cache with byte-identical lines —
// the first-body-wins rule extended to chains.
func TestWatchByteIdentityAcrossSubscriptions(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := watchBody(solvableButterfly, watchDeltas...)
	_, first := postWatch(t, ts, body)
	missesAfterFirst := s.metrics.cacheMisses.Load()
	_, second := postWatch(t, ts, body)
	if !bytes.Equal(bytes.Join(first, []byte("\n")), bytes.Join(second, []byte("\n"))) {
		t.Fatalf("replayed subscription differs:\n%s\nvs\n%s", bytes.Join(first, []byte("\n")), bytes.Join(second, []byte("\n")))
	}
	if got := s.metrics.cacheMisses.Load(); got != missesAfterFirst {
		t.Fatalf("replay missed the cache: %d misses, want %d", got, missesAfterFirst)
	}
	if s.metrics.cacheHits.Load() == 0 {
		t.Fatal("replay recorded no cache hits")
	}
}

// TestWatchChainKeysNeverServeBaseBytes pins the cache-identity guarantee
// the watch API is built on: a revision's chain key is never the base
// instance's canonical key, and fetching a chain revision through the peer
// protocol (POST /internal/cache) returns that revision's bytes — never the
// base instance's.
func TestWatchChainKeysNeverServeBaseBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, lines := postWatch(t, ts, watchBody(solvableButterfly, `{"remove_nodes":[3]}`))
	if code != http.StatusOK || len(lines) != 2 {
		t.Fatalf("watch: %d, %d lines", code, len(lines))
	}
	events := decodeEvents(t, lines)
	base, chain := events[0], events[1]
	if base.Key == chain.Key {
		t.Fatalf("chain key equals base key: %s", base.Key)
	}

	fetch := func(key string) (int, []byte) {
		t.Helper()
		return post(t, ts, "/internal/cache", "watch-v1\nadhoc\n"+key)
	}
	code, got := fetch(chain.Key)
	if code != http.StatusOK {
		t.Fatalf("chain revision not in cache: %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(got), lines[1]) {
		t.Fatalf("peer fetch for chain key served different bytes:\n%s\nvs\n%s", got, lines[1])
	}
	if bytes.Equal(bytes.TrimSpace(got), lines[0]) {
		t.Fatal("peer fetch for chain key served the base instance's bytes")
	}
	var fetched WatchEvent
	if err := json.Unmarshal(got, &fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.Rev != 1 || fetched.PKA.Solvable {
		t.Fatalf("chain key resolved to %+v, want the rev-1 unsolvable verdict", fetched)
	}

	// The base revision lives under its own watch cache line, disjoint from
	// the feasibility endpoint's entry for the same instance.
	code, got = fetch(base.Key)
	if code != http.StatusOK {
		t.Fatalf("base revision not in cache: %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(got), lines[0]) {
		t.Fatalf("peer fetch for base watch key served:\n%s\nwant\n%s", got, lines[0])
	}
}

// TestWatchValidation: pre-stream failures are plain HTTP errors; failures
// after the first verdict line travel in-band as a terminal error object.
func TestWatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWatchDeltas: 2})

	for name, body := range map[string]string{
		"empty stream":      "",
		"bad instance json": "{\n",
		"unknown field":     `{"graph":"0-1","dealer":0,"receiver":1,"bogus":1}` + "\n",
		"bad instance":      `{"graph":"0-1","dealer":0,"receiver":9}` + "\n",
	} {
		if code, _ := postWatch(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}

	// A delta that does not apply: the stream opens 200, reports rev 0, then
	// terminates with an in-band error naming the bad revision.
	code, lines := postWatch(t, ts, watchBody(solvableButterfly, `{"remove_edges":[[1,3]]}`))
	if code != http.StatusOK || len(lines) != 2 {
		t.Fatalf("bad delta: %d, %d lines", code, len(lines))
	}
	var we watchError
	if err := json.Unmarshal(lines[1], &we); err != nil {
		t.Fatal(err)
	}
	if we.Rev != 1 || !strings.Contains(we.Error, "absent edge") {
		t.Fatalf("terminal error = %+v", we)
	}

	// More deltas than MaxWatchDeltas: the limit is reported in-band.
	code, lines = postWatch(t, ts, watchBody(solvableButterfly, watchDeltas...))
	if code != http.StatusOK {
		t.Fatalf("over limit: %d", code)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &we); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(we.Error, "delta limit") {
		t.Fatalf("terminal line = %s, want delta-limit error", lines[len(lines)-1])
	}
}

// ------------------------------------------------------------ fleet routing

// TestRouterForwardsWatchByBaseKey: a watch subscription through the router
// produces the same event stream as a direct shard subscription, and the
// whole stream lands on the shard owning the *base* instance's canonical
// key — chain revisions never scatter across the ring.
func TestRouterForwardsWatchByBaseKey(t *testing.T) {
	_, urls, rt := newFleet(t, 3)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	body := watchBody(solvableButterfly, watchDeltas...)
	code, lines := postWatch(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("watch via router: %d", code)
	}
	events := decodeEvents(t, lines)
	if len(events) != 3 {
		t.Fatalf("want 3 events via router, got %d:\n%s", len(events), bytes.Join(lines, []byte("\n")))
	}

	var q InstanceRequest
	if err := json.Unmarshal([]byte(solvableButterfly), &q); err != nil {
		t.Fatal(err)
	}
	in, _, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	owner := newHashRing(urls).owner(in.CanonicalKey())
	for shard, n := range rt.Forwards() {
		want := int64(0)
		if shard == owner {
			want = 1
		}
		if n != want {
			t.Fatalf("forwards[%s] = %d, want %d (owner %s): %v", shard, n, want, owner, rt.Forwards())
		}
	}

	// Direct shard subscription serves byte-identical lines (router relays
	// verbatim; the shard serves the cached chain).
	resp, err := http.Post(owner+"/v1/watch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	direct := readAll(t, resp)
	if !bytes.Equal(bytes.TrimSpace(direct), bytes.Join(lines, []byte("\n"))) {
		t.Fatalf("router stream differs from direct shard stream:\n%s\nvs\n%s", bytes.Join(lines, []byte("\n")), direct)
	}
}

func TestRouterRejectsBadWatchInstanceLine(t *testing.T) {
	_, _, rt := newFleet(t, 2)
	ts := httptest.NewServer(rt)
	defer ts.Close()
	for name, body := range map[string]string{
		"empty":        "",
		"bad json":     "{\n",
		"bad instance": `{"graph":"0-1","dealer":0,"receiver":9}` + "\n",
	} {
		if code, _ := postWatch(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}
}

// ------------------------------------------------------------ shard timeout

// TestRouterTimesOutStalledShard: a shard that accepts the connection and
// then hangs must not wedge the router's client forever — the query is
// answered 504 under ShardTimeout and counted in rmtd_router_timeouts_total,
// distinct from the transport-failure 502 path.
func TestRouterTimesOutStalledShard(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server detects the router hanging up, then
		// stall until it does (or the test ends).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stalled.Close()
	defer close(release)
	rt, err := NewRouter(RouterOptions{Shards: []string{stalled.URL}, LogWriter: io.Discard, ShardTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	start := time.Now()
	code, body := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stalled shard answered %d %s, want 504", code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s, ShardTimeout is 100ms", elapsed)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("504 body %s does not name the timeout", body)
	}
	if got := rt.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	if got := rt.shardErrors.Load(); got != 0 {
		t.Fatalf("shardErrors = %d — a shard timeout is not a transport failure", got)
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "rmtd_router_timeouts_total 1") {
		t.Fatalf("metrics missing rmtd_router_timeouts_total:\n%s", m)
	}
}

// TestRouterShardTimeoutDefaultExceedsShardDeadline: the router must give
// shards room to answer their own 504 first.
func TestRouterShardTimeoutDefaultExceedsShardDeadline(t *testing.T) {
	rt, err := NewRouter(RouterOptions{Shards: []string{"http://unused"}, LogWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	shardDefault := New(Options{LogWriter: io.Discard})
	defer shardDefault.Close()
	if rt.opts.ShardTimeout <= shardDefault.opts.RequestTimeout {
		t.Fatalf("router default %s must exceed shard compute deadline %s", rt.opts.ShardTimeout, shardDefault.opts.RequestTimeout)
	}
}

// TestWatchTimeoutCounted: a revision whose cut search outlives
// RequestTimeout ends the stream with an in-band error and is counted in
// rmtd_timeouts_total, exactly like a 504 on the request endpoints. The
// uncorrupted 6×6 grid has no cut, so its search would enumerate every
// connected receiver side — seconds past the deadline.
func TestWatchTimeoutCounted(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	var edges []string
	for v := 0; v < 36; v++ {
		if v%6 < 5 {
			edges = append(edges, fmt.Sprintf("%d-%d", v, v+1))
		}
		if v < 30 {
			edges = append(edges, fmt.Sprintf("%d-%d", v, v+6))
		}
	}
	grid := fmt.Sprintf(`{"graph":%q,"dealer":0,"receiver":35}`, strings.Join(edges, " "))
	code, lines := postWatch(t, ts, watchBody(grid))
	if code != http.StatusOK || len(lines) != 1 || !bytes.Contains(lines[0], []byte("deadline exceeded")) {
		t.Fatalf("slow watch answered %d %q, want one in-band deadline error", code, lines)
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "rmtd_timeouts_total 1") {
		t.Fatalf("metrics missing rmtd_timeouts_total 1:\n%s", m)
	}
}

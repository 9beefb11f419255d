package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestWatchByteIdentityAcrossSubscriptions: a subscription replayed on
// the same server streams identical lines, and so does the same body on a
// 1-worker and an 8-worker server. Every revision is computed by its own
// subscription: the result LRU stays empty and the cache counters stay
// at 0.
func TestWatchByteIdentityAcrossSubscriptions(t *testing.T) {
	body := watchBody(solvableButterfly, watchDeltas...)
	var streams [][]byte
	for _, workers := range []int{1, 8} {
		s, ts := newTestServer(t, Options{Workers: workers})
		for i := 0; i < 2; i++ {
			code, lines := postWatch(t, ts, body)
			if code != http.StatusOK || len(lines) != 3 {
				t.Fatalf("workers=%d: %d %q, want 3 events", workers, code, lines)
			}
			streams = append(streams, bytes.Join(lines, []byte("\n")))
		}
		_, m := get(t, ts, "/metrics")
		for _, want := range []string{"rmtd_cache_entries 0\n", "rmtd_cache_hits_total 0\n", "rmtd_cache_misses_total 0\n"} {
			if !strings.Contains(string(m), want) {
				t.Errorf("workers=%d: metrics missing %q:\n%s", workers, want, m)
			}
		}
		if n := s.cache.len(); n != 0 {
			t.Errorf("workers=%d: the LRU holds %d entries after two subscriptions", workers, n)
		}
	}
	for i, stream := range streams[1:] {
		if !bytes.Equal(stream, streams[0]) {
			t.Fatalf("subscription %d differs:\n%s\nvs\n%s", i+1, stream, streams[0])
		}
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

// TestRouterForwardsWatchRoundRobin: consecutive subscriptions through
// the router go to consecutive shards, and each stream equals a direct
// subscription at every shard (the router relays verbatim, and every
// shard computes every revision alike).
func TestRouterForwardsWatchRoundRobin(t *testing.T) {
	_, urls, rt := newFleet(t, 3)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	body := watchBody(solvableButterfly, watchDeltas...)
	want := map[string]int64{}
	for _, url := range urls {
		want[url] = 0
	}
	for i := 0; i < 2*len(urls); i++ {
		code, lines := postWatch(t, ts, body)
		if code != http.StatusOK || len(lines) != 3 {
			t.Fatalf("subscription %d via router: %d %q, want 3 events", i, code, lines)
		}
		want[urls[i%len(urls)]]++
		if got := rt.Forwards(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after subscription %d: forwards %v, want %v", i, got, want)
		}
		stream := bytes.Join(lines, []byte("\n"))
		for _, url := range urls {
			resp, err := http.Post(url+"/v1/watch", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if direct := bytes.TrimSpace(readAll(t, resp)); !bytes.Equal(direct, stream) {
				t.Fatalf("router stream differs from a direct subscription at %s:\n%s\nvs\n%s", url, stream, direct)
			}
		}
	}
}

// TestRouterAnswersBadWatchLinesAsDaemon: the router reads no byte of a
// watch body, so every bad instance line is answered by a shard, with the
// lone daemon's exact status and body.
func TestRouterAnswersBadWatchLinesAsDaemon(t *testing.T) {
	const limit = 64
	doc := `{"graph":"0-1 1-2","dealer":0,"receiver":2}`
	tiers := limitedTiers(t, limit)
	for name, body := range map[string]string{
		"empty body":        "",
		"bad json":          "{\n",
		"unknown field":     `{"graph":"0-1","dealer":0,"receiver":1,"bogus":1}` + "\n",
		"receiver not node": `{"graph":"0-1","dealer":0,"receiver":9}` + "\n",
		"oversize line":     doc + strings.Repeat(" ", limit+1-len(doc)) + "\n",
	} {
		code, want := post(t, tiers["daemon"], "/v1/watch", body)
		if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: daemon answered %d %s", name, code, want)
		}
		if gotCode, got := post(t, tiers["router"], "/v1/watch", body); gotCode != code || !bytes.Equal(got, want) {
			t.Errorf("%s: router answered %d %s, daemon %d %s", name, gotCode, got, code, want)
		}
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

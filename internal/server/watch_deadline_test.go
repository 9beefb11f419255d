package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// gridEdges returns the edges of the 6×6 grid on nodes 0..35, row by row:
// TestWatchTimeoutCounted's instance. Uncorrupted, the grid has no cut
// between 0 and 35, so a search enumerates every connected receiver side:
// seconds, far past a deadline of tens of milliseconds.
func gridEdges() [][2]int {
	var edges [][2]int
	for v := 0; v < 36; v++ {
		if v%6 < 5 {
			edges = append(edges, [2]int{v, v + 1})
		}
		if v < 30 {
			edges = append(edges, [2]int{v, v + 6})
		}
	}
	return edges
}

// slowSecondRevision is a watch body whose rev 0 is answered at once (0
// and 35 are not connected, so the empty cut separates them) and whose
// rev 1 adds the grid's edges, whose search outlives a short deadline.
func slowSecondRevision(t *testing.T) string {
	t.Helper()
	delta, err := json.Marshal(map[string][][2]int{"add_edges": gridEdges()})
	if err != nil {
		t.Fatal(err)
	}
	return watchBody(`{"graph":"0 35","dealer":0,"receiver":35}`, string(delta))
}

// TestWatchRevisionDeadline: a revision whose cut search outlives
// RequestTimeout ends the stream after the revisions before it were
// streamed: rev 0's event, then exactly one in-band deadline error for
// rev 1, counted once in rmtd_timeouts_total.
func TestWatchRevisionDeadline(t *testing.T) {
	s, ts := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	code, lines := postWatch(t, ts, slowSecondRevision(t))
	if code != http.StatusOK || len(lines) != 2 {
		t.Fatalf("watch answered %d %q, want rev 0's event and one error line", code, lines)
	}
	if ev := decodeEvents(t, lines[:1])[0]; ev.Rev != 0 || ev.PKA.Solvable {
		t.Fatalf("rev 0 event %s, want the unsolvable base", lines[0])
	}
	var fail watchError
	if err := json.Unmarshal(lines[1], &fail); err != nil {
		t.Fatalf("error line %s: %v", lines[1], err)
	}
	if fail.Rev != 1 || fail.Error != "deadline exceeded after 50ms" {
		t.Fatalf("error line %s, want rev 1's deadline", lines[1])
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "rmtd_timeouts_total 1") {
		t.Fatalf("metrics missing rmtd_timeouts_total 1:\n%s", m)
	}
}

// TestWatchDeadlinePerRevision: every revision gets a full RequestTimeout
// of its own, so a subscription that lasts many timeouts is answered as
// long as each revision is quick; the time between revisions, while the
// client thinks, counts against none.
func TestWatchDeadlinePerRevision(t *testing.T) {
	const timeout = 200 * time.Millisecond
	s, ts := newTestServer(t, Options{RequestTimeout: timeout})
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/watch", pr)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("no response header")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	// The butterfly flips with every delta of this history, so each
	// revision writes an event.
	history := []string{`{"remove_nodes":[3]}`, `{"add_nodes":[3],"add_edges":[[0,3],[3,4]]}`, `{"remove_nodes":[3]}`}
	for rev := 0; rev <= len(history); rev++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("rev %d: %v", rev, err)
		}
		var ev WatchEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Rev != rev {
			t.Fatalf("rev %d: line %s (%v)", rev, line, err)
		}
		if rev == len(history) {
			break
		}
		time.Sleep(timeout * 3 / 2)
		if _, err := io.WriteString(pw, history[rev]+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	if line, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("after the last event: %q, %v; want EOF", line, err)
	}
	if got := s.metrics.timeouts.Load(); got != 0 {
		t.Fatalf("timeouts counter = %d, want 0", got)
	}
}

// TestRevisionDeadlineLateFire: a timer that fires after its revision
// returned, before disarm stops it, cancels that revision's context only:
// the next revision gets a fresh context with a full timeout. A re-armed
// deadline gives every revision the full timeout, and ends a revision
// that outlives it with errDeadline as the cause.
func TestRevisionDeadlineLateFire(t *testing.T) {
	const timeout = 200 * time.Millisecond
	d := &revisionDeadline{parent: context.Background(), timeout: timeout}
	defer d.stop()

	late := d.arm()
	<-late.Done() // the revision returned; its timer fires before disarm
	d.disarm()
	next := d.arm()
	if err := next.Err(); err != nil {
		t.Fatalf("the revision after a late fire starts canceled: %v", err)
	}
	if cause := context.Cause(late); !errors.Is(cause, errDeadline) {
		t.Fatalf("late fire's cause %v, want errDeadline", cause)
	}
	d.disarm()

	for rev := 0; rev < 3; rev++ {
		ctx := d.arm()
		time.Sleep(timeout / 2)
		if err := ctx.Err(); err != nil {
			t.Fatalf("revision %d ended %v after half its deadline: the deadline was not re-armed", rev, timeout/2)
		}
		d.disarm()
	}

	slow := d.arm()
	select {
	case <-slow.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a revision outlived its deadline by seconds")
	}
	if cause := context.Cause(slow); !errors.Is(cause, errDeadline) {
		t.Fatalf("deadline's cause %v, want errDeadline", cause)
	}
	d.disarm()
}

// TestWatchClientCancelNotCountedAsTimeout: a client that disconnects
// while a revision is searching ends that search, and the revision is
// counted in rmtd_client_cancels_total, not in rmtd_timeouts_total.
func TestWatchClientCancelNotCountedAsTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{RequestTimeout: 20 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The whole upload is sent at once, so the server reads to its end
	// with the first line and then watches the connection.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/watch", strings.NewReader(slowSecondRevision(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil || !bytes.Contains(line, []byte(`"rev":0`)) {
		t.Fatalf("first line %q (%v), want rev 0's event", line, err)
	}
	// Rev 1's search is running now; the client leaves.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.cancels.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the disconnect was never counted in rmtd_client_cancels_total")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.timeouts.Load(); got != 0 {
		t.Fatalf("timeouts counter = %d, want 0: a disconnect is not a timeout", got)
	}
	if got := s.metrics.cancels.Load(); got != 1 {
		t.Fatalf("cancels counter = %d, want 1", got)
	}
}

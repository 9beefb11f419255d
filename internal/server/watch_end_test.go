package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// watchEndTiers starts a lone daemon and a router over one shard, every
// server built from opts and every http.Server logging into errs. The
// caller closes them.
func watchEndTiers(t *testing.T, opts Options, errs io.Writer) (tiers map[string]*httptest.Server, all []*httptest.Server) {
	t.Helper()
	start := func(h http.Handler) *httptest.Server {
		ts := httptest.NewUnstartedServer(h)
		ts.Config.ErrorLog = log.New(errs, "", 0)
		ts.Start()
		all = append(all, ts)
		return ts
	}
	opts.LogWriter = io.Discard
	lone, shard := New(opts), New(opts)
	t.Cleanup(lone.Close)
	t.Cleanup(shard.Close)
	shardTS := start(shard)
	rt, err := NewRouter(RouterOptions{Shards: []string{shardTS.URL}, LogWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	tiers = map[string]*httptest.Server{"daemon": start(lone), "router": start(rt)}
	return tiers, all
}

// TestWatchEndsBeforeUpload: a stream that ends before the client's upload
// does (a delta that does not decode or apply, the delta limit) ends with
// its error line and then EOF while the client still holds its upload
// open, on a lone daemon and through a router. A whole upload whose stream
// ends early, with deltas left unread, is answered the same way, and
// neither case leaves a panic in any server's log.
func TestWatchEndsBeforeUpload(t *testing.T) {
	var errs syncBuffer
	tiers, all := watchEndTiers(t, Options{MaxWatchDeltas: 1}, &errs)
	for _, tc := range []struct {
		name   string
		deltas []string
		rev    int
		text   string
	}{
		{"undecodable delta", []string{`{"bogus":1}`}, 1, "unknown field"},
		{"delta that does not apply", []string{`{"remove_edges":[[1,3]]}`}, 1, "absent edge"},
		{"delta limit", []string{`{"add_edges":[[1,2]]}`, `{"remove_nodes":[3]}`}, 2, "delta limit 1 exceeded"},
	} {
		for name, ts := range tiers {
			tail := openWatchEnd(t, ts, tc.deltas)
			checkErrorLine(t, name+" "+tc.name+", upload open", tail, tc.rev, tc.text)

			// Enough deltas after the last one read that the rest of the
			// body is still unread when the stream ends.
			rest := strings.Repeat(watchDeltas[0]+"\n", 2000)
			body := watchBody(solvableButterfly, tc.deltas...) + rest
			code, lines := postWatch(t, ts, body)
			if code != http.StatusOK || len(lines) < 2 {
				t.Errorf("%s %s, whole upload: %d %q", name, tc.name, code, lines)
				continue
			}
			checkErrorLine(t, name+" "+tc.name+", whole upload", lines[len(lines)-1], tc.rev, tc.text)
		}
	}
	for _, ts := range all {
		ts.Close() // waits for every connection, so a panic is logged by now
	}
	if strings.Contains(errs.String(), "panic") {
		t.Fatalf("server log:\n%s", errs.String())
	}
}

// openWatchEnd opens a subscription over a raw connection whose chunked
// upload stays open, sends the base instance, reads its rev 0 event, sends
// deltas and returns the last line of the stream. It fails the test unless
// the stream ends within a few seconds while the upload is open, and the
// server closes the connection once the upload ends after it.
func openWatchEnd(t *testing.T, ts *httptest.Server, deltas []string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	send := func(s string) {
		t.Helper()
		if _, err := io.WriteString(conn, s); err != nil {
			t.Fatal(err)
		}
	}
	line := func(s string) string { return fmt.Sprintf("%x\r\n%s\n\r\n", len(s)+1, s) }
	send("POST /v1/watch HTTP/1.1\r\nHost: rmtd\r\nTransfer-Encoding: chunked\r\n\r\n" + line(solvableButterfly))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := bufio.NewReader(resp.Body)
	if ev, err := events.ReadBytes('\n'); err != nil || !strings.HasPrefix(string(ev), `{"rev":0,`) {
		t.Fatalf("rev 0 event: %q, %v", ev, err)
	}
	for _, d := range deltas {
		send(line(d))
	}
	rest, err := io.ReadAll(events)
	if err != nil {
		t.Fatalf("stream after the last delta: %v, want EOF while the upload is open", err)
	}
	io.WriteString(conn, "0\r\n\r\n") // the server may have closed already
	if n, err := br.Read(make([]byte, 1)); n > 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("once the upload ended: %d bytes, %v, want the server to close the connection", n, err)
	}
	lines := strings.Split(strings.TrimSpace(string(rest)), "\n")
	return []byte(lines[len(lines)-1])
}

func checkErrorLine(t *testing.T, what string, line []byte, rev int, text string) {
	t.Helper()
	var we watchError
	if err := json.Unmarshal(line, &we); err != nil || we.Rev != rev || !strings.Contains(we.Error, text) {
		t.Errorf("%s: last line %s, want an error at rev %d naming %q", what, line, rev, text)
	}
}

// TestWatchEndDropsOpenUpload: a stream that ends before its upload (here
// on an undecodable delta) closes its connection within watchDrainGrace,
// on a lone daemon and through a router, while the client still holds its
// upload open, so a client that never ends its upload holds no
// connection.
func TestWatchEndDropsOpenUpload(t *testing.T) {
	tiers, all := watchEndTiers(t, Options{}, io.Discard)
	defer func() {
		for _, ts := range all {
			ts.Close()
		}
	}()
	line := func(s string) string { return fmt.Sprintf("%x\r\n%s\n\r\n", len(s)+1, s) }
	for name, ts := range tiers {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		io.WriteString(conn, "POST /v1/watch HTTP/1.1\r\nHost: rmtd\r\nTransfer-Encoding: chunked\r\n\r\n"+line(solvableButterfly))
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.WriteString(conn, line(`{"bogus":1}`))
		stream, err := io.ReadAll(resp.Body)
		if err != nil || !strings.Contains(string(stream), "unknown field") {
			t.Fatalf("%s: stream %q, %v; want its error line and EOF", name, stream, err)
		}
		if n, err := br.Read(make([]byte, 1)); n > 0 || !errors.Is(err, io.EOF) {
			t.Errorf("%s: with the upload open: %d bytes, %v; want the server to close the connection", name, n, err)
		}
	}
}

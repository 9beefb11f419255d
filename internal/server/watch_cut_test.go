package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/gen"
)

// TestCutChecksCounted: rmtd_cut_checks_total counts every cut check that
// /v1/feasibility and /v1/watch make, by how it was answered. The chain is
// the 240-node line whose middle relay is corruptible, with dealer-side
// chords added one per revision: the middle relay still cuts every
// revision, so a computed base revision searches and every computed chord
// revision repairs the last witness. The first subscription sends half
// the chords (1 search, 3 repairs). The second sends them all: its first
// four revisions are LRU hits that seed its checker, so the last three
// still repair. A third is all hits and checks nothing, and of two equal
// feasibility requests only the first searches.
func TestCutChecksCounted(t *testing.T) {
	const n, chords = 240, 6
	_, ts := newTestServer(t, Options{})
	base := fmt.Sprintf(`{"graph":%q,"structure":"%d","dealer":0,"receiver":%d}`, cliutil.FormatEdgeList(gen.Line(n)), n/2, n-1)
	deltas := make([]string, chords)
	for i := range deltas {
		deltas[i] = fmt.Sprintf(`{"add_edges":[[%d,%d]]}`, i, i+2)
	}
	for _, body := range []string{watchBody(base, deltas[:chords/2]...), watchBody(base, deltas...), watchBody(base, deltas...)} {
		code, lines := postWatch(t, ts, body)
		if code != http.StatusOK || len(lines) != 1 || !strings.Contains(string(lines[0]), `"solvable":false`) {
			t.Fatalf("watch: %d %q, want one unsolvable event", code, lines)
		}
	}
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts, "/v1/feasibility", base); code != http.StatusOK {
			t.Fatalf("feasibility: %d %s", code, body)
		}
	}
	_, m := get(t, ts, "/metrics")
	for _, want := range []string{
		fmt.Sprintf(`rmtd_cut_checks_total{answer="repaired"} %d`, chords),
		`rmtd_cut_checks_total{answer="searched"} 2`,
	} {
		if !strings.Contains(string(m), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestWatchFollowsTheStoredBody: when another subscription stores a
// revision's body between this one's cache miss and its own store, the
// stream serves the stored body and reads its verdict from it, not from
// the event it computed. The fake owner plays the other subscription: on
// each peer fetch it stores a body that says "solvable" under the fetched
// key, then answers 404. Rev 1 really has a cut, but its stored body is
// solvable like rev 0's, so no verdict changes and the stream is rev 0's
// stored line alone.
func TestWatchFollowsTheStoredBody(t *testing.T) {
	peer := httptest.NewUnstartedServer(nil)
	defer peer.Close()
	s, ts := newTestServer(t, Options{Peers: []string{"http://" + peer.Listener.Addr().String()}, Self: "http://self.invalid"})
	peer.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key, _ := io.ReadAll(r.Body)
		s.cache.put(string(key), []byte(`{"rev":0, "key":"stored","knowledge":"adhoc","pka":{"solvable":true},"zcpa":{"solvable":true}}`+"\n"))
		http.NotFound(w, r)
	})
	peer.Start()
	code, lines := postWatch(t, ts, watchBody(solvableButterfly, `{"remove_nodes":[3]}`))
	if code != http.StatusOK || len(lines) != 1 || !bytes.Contains(lines[0], []byte(`"key":"stored"`)) {
		t.Fatalf("watch: %d %s, want the stored rev-0 line alone", code, bytes.Join(lines, []byte("\n")))
	}
}

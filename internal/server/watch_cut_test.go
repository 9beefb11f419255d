package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/gen"
)

// TestCutChecksCounted: rmtd_cut_checks_total counts every cut check that
// /v1/feasibility and /v1/watch make, by how it was answered. The chain is
// the 240-node line whose middle relay is corruptible, with dealer-side
// chords added one per revision: the middle relay still cuts every
// revision, so a base revision searches and every chord revision repairs
// the last witness. Every subscription checks all its revisions itself:
// the first sends half the chords (1 search, 3 repairs), the second and
// third send them all (1 search, 6 repairs each). Of two equal feasibility
// requests only the first searches; the second is an LRU hit.
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
		fmt.Sprintf(`rmtd_cut_checks_total{answer="repaired"} %d`, chords/2+2*chords),
		`rmtd_cut_checks_total{answer="searched"} 4`,
	} {
		if !strings.Contains(string(m), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

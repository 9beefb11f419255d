package server

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/gen"
	"rmt/internal/instance"
)

// watchChainBody is the /v1/watch body for in at level followed by deltas.
func watchChainBody(t *testing.T, in *instance.Instance, level gen.Knowledge, deltas []instance.Delta) string {
	t.Helper()
	q := InstanceRequest{
		Graph: cliutil.FormatEdgeList(in.G), Structure: cliutil.FormatStructure(in.Z),
		Knowledge: level.String(), Dealer: in.Dealer, Receiver: in.Receiver,
	}
	lines := []string{mustJSON(t, q)}
	for _, d := range deltas {
		lines = append(lines, mustJSON(t, d))
	}
	return strings.Join(lines, "\n") + "\n"
}

// watchBytesBudget bounds the heap bytes of one /v1/watch subscription
// that computes every revision: an 11-node ad hoc instance and a 10-delta
// chain. It sits about a quarter above the count measured when a revision
// came to pay only for its delta: 83,413 B before, 52,501 B after
// (collector off, one P, the mean of 10 subscriptions), from building and
// checking only the stars a delta changes and running each cut check on
// the request's goroutine, with no job closure, result channel or
// deadline Done channel. When a
// revision came to cost one cut check it fell from 156 KB to 83 KB: a
// 4 KiB scanner buffer in place of a 64 KiB one saved 61 KB of that, one
// checker for both ad hoc verdicts and the computed event used without
// decoding its own body 11 KB.
const watchBytesBudget = 66_000

func TestWatchBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	in, err := gen.RandomInstance(rand.New(rand.NewSource(26)), 11, 0.4, 2, 0.3, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := gen.RandomDeltaChain(in, gen.AdHoc, 10, 26)
	if err != nil {
		t.Fatal(err)
	}
	body := watchChainBody(t, in, gen.AdHoc, deltas)

	// Every subscription goes to a fresh server, so no revision is served
	// from the LRU; servers, requests and recorders are made before the
	// count.
	const runs = 10
	servers := make([]*Server, runs+1)
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range servers {
		servers[i] = New(Options{Workers: 1, LogWriter: io.Discard})
		t.Cleanup(servers[i].Close)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/watch", strings.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	subscribe := func(i int) {
		servers[i].ServeHTTP(recs[i], reqs[i])
		if recs[i].Code != http.StatusOK || strings.Contains(recs[i].Body.String(), `"error"`) {
			t.Fatalf("watch: %d %s", recs[i].Code, recs[i].Body.Bytes())
		}
	}

	// The collector is off and one P runs, so the count is what one
	// subscription allocates, not what a collection freed from a pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	subscribe(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		subscribe(i)
	}
	runtime.ReadMemStats(&after)
	perSub := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("one subscription allocates %.0f bytes", perSub)
	if perSub > watchBytesBudget {
		t.Errorf("one watch subscription allocates %.0f bytes, budget %d", perSub, watchBytesBudget)
	}
}

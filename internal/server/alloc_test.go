package server

import (
	"io"
	"math"
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

// watchBytesBudget bounds the heap bytes of one /v1/watch subscription,
// which computes every revision: an 11-node ad hoc instance and a 10-delta
// chain (watchBudgetChain). It sits a quarter above the count measured
// when a revision came to allocate only for its delta and its cut check:
// 37,000 B before, 25,496 B after (collector off, one P, the mean of 10
// subscriptions), with one deadline timer per subscription re-armed for
// each revision, chain keys written into two stack buffers, events
// rendered only when written, an Apply in ten allocations and the cut
// check's scratch kept across revisions.
// Earlier, revisions stopped being cached: 41,024 B before, 38,424 B
// after, the cache key, LRU entry and stored-body read of every revision
// gone.
// Later, a revision came to marshal its event only when the stream writes
// it (the first revision and verdict flips): 38,600 B before, 37,000 B
// after.
// Earlier, its lines came to be read without reflection: 52,501 B before,
// 41,024 B after. Writing each event with appends instead of json.Marshal
// saved another 32 B, so the events stay on json.Marshal.
// Earlier, a revision that came to pay only for its delta took it from
// 83,413 B to 52,501 B, by building and checking only the stars a delta
// changes and running each cut check on the request's goroutine, with no
// job closure, result channel or deadline Done channel; and a revision
// that came to cost one cut check took it from 156 KB to 83 KB: a 4 KiB
// scanner buffer in place of a 64 KiB one saved 61 KB of that, one
// checker for both ad hoc verdicts and the computed event used without
// decoding its own body 11 KB.
const watchBytesBudget = 32_000

func TestWatchBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, perSub := subscriptionCost(t, watchBudgetChain(t, 10), 10)
	t.Logf("one subscription allocates %.0f bytes", perSub)
	if perSub > watchBytesBudget {
		t.Errorf("one watch subscription allocates %.0f bytes, budget %d", perSub, watchBytesBudget)
	}
}

// watchBudgetChain is the /v1/watch body of the allocation budgets: an
// 11-node ad hoc instance and a seeded chain of steps deltas. Equal seeds
// draw equal prefixes, so a longer chain extends a shorter one.
func watchBudgetChain(t *testing.T, steps int) string {
	t.Helper()
	in, err := gen.RandomInstance(rand.New(rand.NewSource(26)), 11, 0.4, 2, 0.3, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := gen.RandomDeltaChain(in, gen.AdHoc, steps, 26)
	if err != nil {
		t.Fatal(err)
	}
	return watchChainBody(t, in, gen.AdHoc, deltas)
}

// subscriptionCost returns the mean allocations and heap bytes of one
// /v1/watch subscription to body over runs subscriptions, each on a fresh
// server. Servers, requests and recorders are made before the count, and
// one subscription runs before it; the collector is off and one P runs,
// so the count is what one subscription allocates, not what a collection
// freed from a pool.
func subscriptionCost(t *testing.T, body string, runs int) (allocs, bytes float64) {
	t.Helper()
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	subscribe(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		subscribe(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// watchRevisionAllocBudget bounds the allocations of one /v1/watch
// revision: a delta decoded, applied and keyed, and one cut check, with
// its event rendered only when the stream writes it. A revision's cost is
// the difference between a 100-delta and a 10-delta subscription to
// watchBudgetChain's instance, over the 90 revisions between them
// (collector off, one P). It read 29.6 allocations and 1,924 B with a
// deadline context per revision, string chain keys, every event rendered
// and a fresh walk and slab per cut check, and 12.0 and 956 B once a
// revision allocated only for its delta and its cut check. The budget
// sits a quarter above 12.
const watchRevisionAllocBudget = 15

func TestWatchRevisionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const short, long, runs = 10, 100, 5
	shortAllocs, shortBytes := subscriptionCost(t, watchBudgetChain(t, short), runs)
	longAllocs, longBytes := subscriptionCost(t, watchBudgetChain(t, long), runs)
	allocs := (longAllocs - shortAllocs) / (long - short)
	bytes := (longBytes - shortBytes) / (long - short)
	t.Logf("one revision allocates %.1f times, %.0f bytes", allocs, bytes)
	if allocs > watchRevisionAllocBudget {
		t.Errorf("one watch revision allocates %.1f times, budget %d", allocs, watchRevisionAllocBudget)
	}
}

// feasibilityHitBudget bounds the allocations of one /v1/feasibility
// cache hit on a 14-node instance, the httptest request and recorder
// included. A hit parses the request, checks the tuple's parts and keys
// the result cache by the parts key, which reads no view: 37 allocations
// (8.2 KB) at every knowledge level. Building the instance, its views
// and its canonical text before the lookup had cost 49, 50, 50, 48 and
// 43 (adhoc to full, 13.3 KB at adhoc). The budget sits a quarter above
// 37.
const feasibilityHitBudget = 46

// TestFeasibilityHitAllocBudget primes one 14-node instance at each of
// the five knowledge levels, then counts the allocations of N hits on
// each with the collector off and one P. The count must be the same at
// every level, since a hit builds no view and no canonical text, and
// within feasibilityHitBudget.
func TestFeasibilityHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	in, err := gen.RandomInstance(rand.New(rand.NewSource(33)), 14, 0.4, 2, 0.3, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 1, LogWriter: io.Discard})
	t.Cleanup(srv.Close)
	post := func(body string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feasibility", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("feasibility: %d %s", rec.Code, rec.Body.Bytes())
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const hits = 200
	counts := map[gen.Knowledge]float64{}
	for _, level := range gen.Levels() {
		body := mustJSON(t, FeasibilityRequest{InstanceRequest: InstanceRequest{
			Graph: cliutil.FormatEdgeList(in.G), Structure: cliutil.FormatStructure(in.Z),
			Knowledge: level.String(), Dealer: in.Dealer, Receiver: in.Receiver,
		}})
		post(body)
		hitsBefore := srv.metrics.cacheHits.Load()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			post(body)
		}
		runtime.ReadMemStats(&after)
		if got := srv.metrics.cacheHits.Load() - hitsBefore; got != hits {
			t.Fatalf("%s: %d of %d requests hit", level, got, hits)
		}
		// One stray allocation in a few hundred hits (a map or pool
		// growing) is not the hit's own, so the mean is rounded.
		counts[level] = math.Round(float64(after.Mallocs-before.Mallocs) / hits)
		t.Logf("%s: one hit allocates %.0f times, %.0f bytes", level, counts[level], float64(after.TotalAlloc-before.TotalAlloc)/hits)
	}
	for _, level := range gen.Levels() {
		if counts[level] != counts[gen.AdHoc] {
			t.Errorf("a hit at %s allocates %.0f times, at adhoc %.0f: a hit must read no view", level, counts[level], counts[gen.AdHoc])
		}
		if counts[level] > feasibilityHitBudget {
			t.Errorf("a hit at %s allocates %.0f times, budget %d", level, counts[level], feasibilityHitBudget)
		}
	}
}

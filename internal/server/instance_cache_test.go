package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rmt/internal/benchdef"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/protocol"
)

// TestLRUBoundsAndEviction pins the LRU both caches use: at most max
// entries, summed weights within the budget, the least recently used entry
// evicted first, the incumbent kept on a second put, a value heavier than
// the whole budget returned but not stored, and a held value that grows
// reweighed into the bounds. A seeded stream of gets, puts and growths is
// checked against a slice model of the same rules.
func TestLRUBoundsAndEviction(t *testing.T) {
	type item struct{ val, cost int }
	weigh := func(it *item) int { return it.cost }
	c := newLRU(3, 10, weigh)
	has := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := c.get(k); !ok {
				t.Fatalf("%q evicted", k)
			}
		}
	}
	a := &item{1, 1}
	c.put("a", a)
	c.put("b", &item{2, 1})
	c.put("c", &item{3, 1})
	has("a") // b is now the least recently used
	c.put("d", &item{4, 1})
	if _, ok := c.get("b"); ok || c.len() != 3 {
		t.Fatalf("fourth entry kept b or overflowed: len %d", c.len())
	}
	has("a", "c", "d")
	if v := c.put("a", &item{99, 1}); v != a {
		t.Fatalf("second put of a returned %v, want the incumbent", *v)
	}
	huge := &item{5, 11}
	if v := c.put("huge", huge); v != huge {
		t.Fatalf("over-budget put returned %v, want its own value", *v)
	}
	if _, ok := c.get("huge"); ok || c.len() != 3 || c.weight != 3 {
		t.Fatalf("over-budget value stored or evicted others: len %d, weight %d", c.len(), c.weight)
	}
	c.put("e", &item{5, 8}) // 3 + 8 > 10: the least recently used entries make room
	has("e")
	if c.weight > 10 || c.len() > 3 {
		t.Fatalf("bounds broken: len %d, weight %d", c.len(), c.weight)
	}
	a.cost = 11 // a grew past the whole budget while held
	c.reweigh("a")
	if _, ok := c.get("a"); ok || c.weight > 10 {
		t.Fatalf("a grew past the budget and stayed: weight %d", c.weight)
	}

	type entry struct {
		key string
		it  *item
	}
	const maxEntries, budget = 5, 40
	c = newLRU(maxEntries, budget, weigh)
	var model []entry // most recently used first
	find := func(k string) int {
		for i, e := range model {
			if e.key == k {
				return i
			}
		}
		return -1
	}
	touch := func(i int) {
		e := model[i]
		model = append(model[:i], model[i+1:]...)
		model = append([]entry{e}, model...)
	}
	fit := func() {
		for sum := 0; ; sum = 0 {
			for _, e := range model {
				sum += e.it.cost
			}
			if len(model) <= maxEntries && sum <= budget {
				return
			}
			model = model[:len(model)-1]
		}
	}
	r := rand.New(rand.NewSource(1))
	for op := 0; op < 5000; op++ {
		k := fmt.Sprint(r.Intn(12))
		i := find(k)
		switch r.Intn(3) {
		case 0:
			it, ok := c.get(k)
			if ok != (i >= 0) || ok && it != model[i].it {
				t.Fatalf("op %d: get(%s) = %v, %v; model %v", op, k, it, ok, model)
			}
			if ok {
				touch(i)
			}
		case 1:
			it := &item{op, r.Intn(budget + 5)}
			want := it
			switch {
			case i >= 0:
				want = model[i].it
				touch(i)
			case it.cost <= budget:
				model = append([]entry{{k, it}}, model...)
				fit()
			}
			if got := c.put(k, it); got != want {
				t.Fatalf("op %d: put(%s) = %v, want %v", op, k, got, want)
			}
		default:
			// The held value grows (or shrinks) in place; reweigh
			// drops it if it passes the whole budget and otherwise
			// evicts from the least recently used end.
			if i >= 0 {
				model[i].it.cost = r.Intn(budget + 5)
				if model[i].it.cost > budget {
					model = append(model[:i], model[i+1:]...)
				}
				fit()
			}
			c.reweigh(k)
		}
		sum := 0
		for _, e := range model {
			sum += e.it.cost
		}
		if c.len() != len(model) || c.weight != sum || c.weight > budget || c.len() > maxEntries {
			t.Fatalf("op %d: len %d weight %d, model len %d weight %d", op, c.len(), c.weight, len(model), sum)
		}
	}
}

// TestInstanceCacheMetrics: a seed sweep builds its instance once and hits
// the instance cache after, while the result cache, keyed by seed, only
// misses; a request whose instance does not build is a miss that stores
// nothing.
func TestInstanceCacheMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for seed := 1; seed <= 3; seed++ {
		body := strings.Replace(solvableButterfly, `"dealer"`, fmt.Sprintf(`"seed":%d,"dealer"`, seed), 1)
		if code, resp := post(t, ts, "/v1/run", body); code != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, code, resp)
		}
	}
	if code, resp := post(t, ts, "/v1/run", `{"graph":"0-1","dealer":0,"receiver":7}`); code != http.StatusBadRequest {
		t.Fatalf("bad instance answered %d %s", code, resp)
	}
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		"rmtd_instance_cache_entries 1\n",
		"rmtd_instance_cache_hits_total 2\n",
		"rmtd_instance_cache_misses_total 2\n",
		"rmtd_cache_entries 3\n",
		"rmtd_cache_hits_total 0\n",
		"rmtd_cache_misses_total 3\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	if r := s.CacheHitRatio(); r != 0 {
		t.Errorf("CacheHitRatio = %v after three distinct seeds, want 0", r)
	}
}

// TestOverBudgetInstanceServedNotKept: /v1/run weighs each instance by
// its canonical text plus its warm state, and an instance heavier than the
// whole byte budget is run and answered as a kept one would be, but not
// stored, so the next request for it builds it again; one within the
// budget is kept (𝒵-CPA keeps no warm state, so its weight is its text).
func TestOverBudgetInstanceServedNotKept(t *testing.T) {
	s := New(Options{LogWriter: io.Discard})
	defer s.Close()
	small := `{"graph":"0-1 0-2 1-3 2-3","structure":"1","dealer":0,"receiver":3,"protocol":"zcpa"}`
	q := InstanceRequest{Graph: "0-1 0-2 0-3 1-4 2-4 3-4", Structure: "1;2;3", Receiver: 4}
	in, _, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	s.instances = newLRU(8, in.CanonicalSize()-1, instanceWeight)
	for i := 0; i < 2; i++ {
		if code, body := serveRun(s, solvableButterfly); code != http.StatusOK {
			t.Fatalf("over-budget instance answered %d %s", code, body)
		} else if _, want := serveAlone(solvableButterfly); !bytes.Equal(body, want) {
			t.Fatalf("over-budget instance answered %s, a fresh server %s", body, want)
		}
		if n := s.instances.len(); n != 0 {
			t.Fatalf("over-budget instance kept: %d entries", n)
		}
	}
	if code, body := serveRun(s, small); code != http.StatusOK {
		t.Fatalf("small instance answered %d %s", code, body)
	}
	if n, w := s.instances.len(), s.instances.weight; n != 1 || w <= 0 || w > in.CanonicalSize()-1 {
		t.Fatalf("after a small instance: %d entries of weight %d", n, w)
	}
	if hits, misses := s.metrics.instanceHits.Load(), s.metrics.instanceMisses.Load(); hits != 0 || misses != 3 {
		t.Fatalf("instance cache: %d hits, %d misses; want 0 and 3", hits, misses)
	}
}

// TestInstanceCacheBoundsRetainedHeap: the warm state runs leave on kept
// instances counts against the instance cache's byte budget, so clients
// that send ever new long values cannot grow the heap past it. Every
// request carries a distinct 100 KB dealer value, which RMT-PKA's dealer
// payloads and relay caches and MBRB's sealed payloads key by: PKA on one
// text, on texts that respell one instance, and MBRB on one text. Every
// body must equal a fresh server's, the kept weights must stay within the
// budget, and the heap the server keeps after a collection must stay
// within twice the budget; without the warm-state charges it keeps about
// 26 MB.
func TestInstanceCacheBoundsRetainedHeap(t *testing.T) {
	const budget = 4 << 20
	s := New(Options{LogWriter: io.Discard})
	defer s.Close()
	s.instances = newLRU(1024, budget, instanceWeight)
	s.cache = newLRU[[]byte](1, 0, nil) // a body holds its 100 KB decision

	k10, err := benchdef.CompleteInstance(10, gen.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	mbrb := RunRequest{
		InstanceRequest: InstanceRequest{
			Graph: cliutil.FormatEdgeList(k10.G), Structure: cliutil.FormatStructure(k10.Z),
			Dealer: k10.Dealer, Receiver: k10.Receiver,
		},
		Protocol: protocol.MBRB,
	}
	edges := strings.Fields("0-1 0-2 0-3 1-4 2-4 3-4")
	requests := func(i int) []RunRequest {
		value := fmt.Sprint(i) + strings.Repeat("v", 100<<10)
		pka := RunRequest{InstanceRequest: InstanceRequest{Graph: strings.Join(edges, " "), Structure: "1;2;3", Receiver: 4}, Value: value}
		respelled := pka
		respelled.Graph = strings.Join(append(edges[i%6:], edges[:i%6]...), strings.Repeat(" ", 1+i/6))
		m := mbrb
		m.Value = value
		return []RunRequest{pka, respelled, m}
	}

	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	const values = 30
	for i := 0; i < values; i++ {
		for _, req := range requests(i) {
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, body := serveRun(s, string(b))
			if wantCode, want := serveAlone(string(b)); code != wantCode || !bytes.Equal(body, want) {
				t.Fatalf("%s on %q: answered %d %.200s, a fresh server %d %.200s", req.Protocol, req.Graph, code, body, wantCode, want)
			}
			if w := s.instances.weight; w > budget {
				t.Fatalf("kept weights %d past the budget %d", w, budget)
			}
		}
	}
	kept := heap() - before
	runtime.KeepAlive(s)
	if kept > 2*budget {
		t.Fatalf("the server keeps %.1f MB after %d requests with 100 KB values, want at most %.1f MB", float64(kept)/1e6, 3*values, 2*float64(budget)/1e6)
	}
	t.Logf("%d requests: %d instances of weight %.2f MB kept, %.2f MB of heap", 3*values, s.instances.len(), float64(s.instances.weight)/1e6, float64(kept)/1e6)
}

// TestResultCacheBoundsRetainedHeap: the result cache weighs each body by
// its length against resultCacheBytes, so clients that ask for ever new
// transcript runs cannot grow the heap past it. Every request carries a
// distinct 500 KB dealer value and asks for three trials with their
// transcripts, an 18 MB body, and together the bodies come to three times
// the budget. The heap the server keeps after a collection must stay
// within half a budget above it (the instance cache keeps up to
// instanceCacheBytes of the values' warm state besides); with the result
// cache bounded in entries alone it keeps every body.
func TestResultCacheBoundsRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector multiplies the 200 MB this test allocates")
	}
	s := New(Options{LogWriter: io.Discard})
	defer s.Close()
	heap := func() int64 {
		var ms runtime.MemStats
		// The first collection only moves sync.Pool contents to the
		// victim cache, encoding/json's buffers among them, each of which
		// last held a whole body; the second frees them.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	sent, requests := 0, 0
	for ; sent < 3*resultCacheBytes; requests++ {
		b, err := json.Marshal(RunRequest{
			InstanceRequest: InstanceRequest{Graph: "0-1 0-2 0-3 1-4 2-4 3-4", Structure: "1;2;3", Receiver: 4},
			Value:           fmt.Sprint(requests) + strings.Repeat("v", 500<<10),
			Trials:          3,
			Transcript:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		code, body := serveRun(s, string(b))
		if code != http.StatusOK {
			t.Fatalf("request %d answered %d %.200s", requests, code, body)
		}
		sent += len(body)
	}
	kept := heap() - before
	runtime.KeepAlive(s)
	t.Logf("%d bodies of %.1f MB in all: %d kept, %.1f MB of heap", requests, float64(sent)/1e6, s.cache.len(), float64(kept)/1e6)
	if kept > 3*resultCacheBytes/2 {
		t.Fatalf("the server keeps %.1f MB after %.1f MB of bodies, want at most %.1f MB", float64(kept)/1e6, float64(sent)/1e6, 1.5*resultCacheBytes/1e6)
	}
}

// historyRequests builds the /v1/run bodies TestRunBodiesIndependentOfHistory
// sends: every registered protocol on small run-mix families × lockstep and
// async under every schedule × no attack and every registered strategy,
// each at two seeds whose trials (1, 3), transcript flags, dealer values
// and forged values differ, so one kept instance serves several values
// through its value-keyed warm stores (dealer and MBRB payloads, relay
// caches) in shuffled order. PKA
// runs one chain at two knowledge levels (the same graph and structure),
// and each protocol also runs honest on its first instance with the
// structure left out, so an instance cache that ignored Knowledge or
// Structure would serve some request another request's instance.
func historyRequests(t *testing.T) []string {
	t.Helper()
	type inst struct {
		in    *instance.Instance
		level gen.Knowledge
	}
	mk := func(in *instance.Instance, err error) *instance.Instance {
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	families := map[string][]inst{
		protocol.PKA: {
			{mk(benchdef.ChainInstance(3, 2, gen.Radius2)), gen.Radius2},
			{mk(benchdef.ChainInstance(3, 2, gen.Radius3)), gen.Radius3},
			{mk(benchdef.LopsidedChainInstance([]int{1, 1, 4}, gen.AdHoc)), gen.AdHoc},
		},
		protocol.ZCPA:      {{mk(benchdef.ChainInstance(4, 1, gen.AdHoc)), gen.AdHoc}},
		protocol.PPA:       {{mk(benchdef.ChainInstance(4, 2, gen.FullKnowledge)), gen.FullKnowledge}},
		protocol.Broadcast: {{mk(benchdef.ChainInstance(6, 1, gen.AdHoc)), gen.AdHoc}},
		protocol.MBRB:      {{mk(benchdef.CompleteInstance(7, gen.AdHoc)), gen.AdHoc}},
		protocol.SMT:       {{mk(benchdef.SMTInstance(6, gen.AdHoc)), gen.AdHoc}},
	}
	engines := [][2]string{{"lockstep", "sync"}, {"async", "sync"}, {"async", "random"}, {"async", "fifo"}, {"async", "lifo"}, {"async", "partition"}}
	attacks := append([]string{""}, byzantine.Names()...)
	values := []string{"", "0", "a dealer value a little longer than the others"}
	forged := []string{"", "x", "a forged value a little longer than the others"}
	var out []string
	add := func(req RunRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	n := 0
	for _, p := range protocol.Names() {
		insts, ok := families[p]
		if !ok {
			t.Fatalf("no family for registered protocol %q", p)
		}
		for _, e := range engines {
			q := insts[0]
			add(RunRequest{
				InstanceRequest: InstanceRequest{Graph: cliutil.FormatEdgeList(q.in.G), Knowledge: q.level.String(), Dealer: q.in.Dealer, Receiver: q.in.Receiver},
				Protocol:        p, Engine: e[0], Schedule: e[1], Seed: int64(n),
			})
			for _, a := range attacks {
				q := insts[n%len(insts)]
				req := RunRequest{
					InstanceRequest: InstanceRequest{
						Graph: cliutil.FormatEdgeList(q.in.G), Structure: cliutil.FormatStructure(q.in.Z),
						Knowledge: q.level.String(), Dealer: q.in.Dealer, Receiver: q.in.Receiver,
					},
					Protocol: p, Engine: e[0], Schedule: e[1], Attack: a,
				}
				if a != "" {
					maxl := q.in.MaximalCorruptions()
					req.Corrupt = maxl[n%len(maxl)].Members()
				}
				for i := 0; i < 2; i++ {
					req.Seed = int64(1000*n + i)
					req.Trials = 1 + 2*((n+i)%2)
					req.Transcript = (n/2+i)%2 == 1
					req.Value = values[(n+i)%len(values)]
					req.Forged = forged[(n/3+i)%len(forged)]
					add(req)
				}
				n++
			}
		}
	}
	return out
}

// serveRun answers one /v1/run body on s, in process.
func serveRun(s *Server, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// serveAlone answers one /v1/run body on a server of its own.
func serveAlone(body string) (int, []byte) {
	s := New(Options{LogWriter: io.Discard})
	defer s.Close()
	return serveRun(s, body)
}

// TestRunBodiesIndependentOfHistory: a /v1/run body must not depend on
// which runs the server served before or beside it. The requests of
// historyRequests go, shuffled, from four concurrent clients to one server,
// whose instance cache shares each instance, its Z_v and its warm protocol
// state across all of them; every body must equal the one a fresh server
// gives the same request alone.
func TestRunBodiesIndependentOfHistory(t *testing.T) {
	reqs := historyRequests(t)
	if len(reqs) < 1000 {
		t.Fatalf("%d requests, want at least 1,000", len(reqs))
	}
	type answer struct {
		code int
		body []byte
	}
	each := func(f func(i int)) {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					f(i)
				}
			}()
		}
		for i := range reqs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	want := make([]answer, len(reqs))
	each(func(i int) {
		code, body := serveAlone(reqs[i])
		want[i] = answer{code, body}
	})

	s, ts := newTestServer(t, Options{})
	order := rand.New(rand.NewSource(31)).Perm(len(reqs))
	got := make([]answer, len(reqs))
	each(func(k int) {
		i := order[k]
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(reqs[i]))
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		got[i] = answer{resp.StatusCode, body}
	})

	ok, bad := 0, 0
	for i := range reqs {
		if want[i].code == http.StatusOK {
			ok++
		}
		if got[i].code != want[i].code || !bytes.Equal(got[i].body, want[i].body) {
			if bad++; bad <= 3 {
				t.Errorf("request %s\nshared server: %d %.300s\nfresh server:  %d %.300s", reqs[i], got[i].code, got[i].body, want[i].code, want[i].body)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d bodies depend on the server's history", bad, len(reqs))
	}
	if ok < len(reqs)*9/10 {
		t.Fatalf("only %d of %d requests answered 200", ok, len(reqs))
	}
	// Each client has one request in flight, so a text misses at most
	// once per client before its first build is stored.
	if hits := s.metrics.instanceHits.Load(); hits < int64(len(reqs)-4*s.instances.len()) {
		t.Fatalf("%d instance-cache hits over %d requests on %d texts", hits, len(reqs), s.instances.len())
	}
	t.Logf("%d bodies (%d of them 200) equal a fresh server's; %d instances cached", len(reqs), ok, s.instances.len())
}

// TestRunCutShortLeavesInstanceSound: a /v1/run that answers 504 part way
// through an RMT-PKA receiver's search leaves the instance it built in the
// instance cache, with whatever warm state the run filled. The instance is
// D–1–R with k leaves on R and 𝒵 = {{1}}, under full knowledge: R's one
// candidate has the cover {1} with B = R and every leaf, which the cover
// search reaches among 2^k sides, so R never decides. The receiver stores
// no cover verdict its ended context cut short, so after runs cut at a
// sixteenth, an eighth, a quarter and a half of a fresh run's time, the
// same request on the same server with the default deadline must answer
// the fresh server's body. A receiver that stored the unfinished search's
// "no cover" would decide.
func TestRunCutShortLeavesInstanceSound(t *testing.T) {
	const k = 12
	edges := []string{"0-1 1-2"}
	for v := 3; v < k+3; v++ {
		edges = append(edges, fmt.Sprintf("2-%d", v))
	}
	body := fmt.Sprintf(`{"graph":%q,"structure":"1","knowledge":"full","dealer":0,"receiver":2}`, strings.Join(edges, " "))

	start := time.Now()
	wantCode, want := serveAlone(body)
	full := time.Since(start)
	var resp RunResponse
	if err := json.Unmarshal(want, &resp); wantCode != http.StatusOK || err != nil || resp.Trials[0].Decided {
		t.Fatalf("fresh server answered %d %s, want an undecided run", wantCode, want)
	}

	s := New(Options{Workers: 1, LogWriter: io.Discard})
	defer s.Close()
	cut := 0
	for _, div := range []time.Duration{16, 8, 4, 2} {
		s.opts.RequestTimeout = full / div
		if code, _ := serveRun(s, body); code == http.StatusGatewayTimeout {
			cut++
		}
	}
	if cut == 0 {
		t.Fatalf("no run was cut short at deadlines up to %v (a fresh run takes %v)", full/2, full)
	}
	if n := s.instances.len(); n != 1 {
		t.Fatalf("instance cache holds %d entries after the cut runs, want 1", n)
	}
	s.opts.RequestTimeout = 30 * time.Second
	code, got := serveRun(s, body)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("after %d cut runs the same server answered %d %s\nfresh server: %s", cut, code, got, want)
	}
	t.Logf("fresh run %v; %d of 4 runs cut short", full, cut)
}

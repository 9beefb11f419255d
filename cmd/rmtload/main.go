// Command rmtload drives load against an rmtd daemon and checks the
// acceptance bar of the query service:
//
//   - it sustains -concurrency in-flight requests with zero dropped
//     connections (transport-level failures) and zero 5xx replies;
//   - the canonical-instance cache absorbs the repetition in the workload
//     (final rmtd_cache_hit_ratio > 0.5);
//   - equal requests get byte-identical JSON bodies regardless of the
//     daemon's worker count (checked against two in-process servers with
//     1 and 8 workers).
//
// With -addr it targets a running daemon; without it, it boots an
// in-process server so `make loadtest` needs no orchestration. -smoke runs
// the same checks at CI scale (one uncached plus one cached request).
//
// -watch runs the watch-API smoke instead: it subscribes to POST /v1/watch,
// pushes a scripted delta chain whose feasibility flips twice, and asserts
// the stream carries exactly the verdict-change events.
//
// -fleet boots three in-process shards behind a consistent-hash router
// (the rmtd fleet topology) and adds the fleet acceptance bar: the router
// spreads distinct instances across shards, direct hits on non-owning
// shards are served out of the owning peer's cache (cross-shard peer hits
// > 0), and every shard serves bytes identical to the router's. The -watch
// history, subscribed through the router and directly at each shard, must
// stream the same lines all four times.
//
// Usage:
//
//	rmtload                        # in-process, 200 in flight, 4000 requests
//	rmtload -addr localhost:8080   # against a running daemon
//	rmtload -smoke                 # CI-sized smoke with the same assertions
//	rmtload -fleet -smoke          # CI-sized fleet smoke (3 shards + router)
//	rmtload -watch                 # watch-API smoke (verdict-change stream)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rmt/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmtload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmtload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "", "daemon address (empty = boot an in-process server)")
		concurrency = fs.Int("concurrency", 200, "concurrent in-flight requests")
		requests    = fs.Int("requests", 4000, "total requests to issue")
		smoke       = fs.Bool("smoke", false, "CI-sized smoke run (overrides -concurrency/-requests)")
		fleet       = fs.Bool("fleet", false, "boot a 3-shard fleet behind a router and add the cross-shard cache checks")
		watch       = fs.Bool("watch", false, "watch-API smoke: subscribe, push a scripted delta chain, assert the exact verdict-change events")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*concurrency, *requests = 4, 3*len(workload())
	}
	if *concurrency < 1 || *requests < *concurrency {
		return fmt.Errorf("need requests ≥ concurrency ≥ 1 (got %d, %d)", *requests, *concurrency)
	}
	if *fleet {
		if *addr != "" {
			return fmt.Errorf("-fleet boots its own in-process shards; it cannot target -addr")
		}
		return runFleet(out, *concurrency, *requests)
	}

	base := "http://" + *addr
	if *addr == "" {
		stop, inproc, err := bootInProcess(*concurrency)
		if err != nil {
			return err
		}
		defer stop()
		base = inproc
	}

	if *watch {
		_, err := runWatchSmoke(out, base)
		return err
	}
	if err := driveLoad(out, base, []string{base}, *concurrency, *requests); err != nil {
		return err
	}
	return checkByteIdentity(out)
}

// bootInProcess starts a quiet rmtd server on an ephemeral port with a
// queue deep enough that the load itself never trips backpressure.
func bootInProcess(concurrency int) (stop func(), base string, err error) {
	srv := server.New(server.Options{QueueDepth: 2 * concurrency, LogWriter: io.Discard})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	httpServer := &http.Server{Handler: srv}
	go httpServer.Serve(ln)
	stop = func() {
		httpServer.Close()
		srv.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

type workItem struct {
	path string
	body string
}

// workload is the request mix: a handful of distinct feasibility and run
// queries over small instances. Issuing `requests` draws round-robin from
// it makes the expected cache hit ratio (requests - distinct) / requests,
// far above the 0.5 bar for any realistic request count.
func workload() []workItem {
	items := []workItem{
		{"/v1/feasibility", `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}`},
		{"/v1/feasibility", `{"graph":"0-1 1-2","structure":"1","dealer":0,"receiver":2}`},
		{"/v1/feasibility", `{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3}`},
		{"/v1/feasibility", `{"graph":"0-1 0-2 1-3 2-3","structure":"1,2","dealer":0,"receiver":3}`},
		{"/v1/run", `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,"protocol":"pka"}`},
		{"/v1/run", `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,"protocol":"zcpa","corrupt":[2],"attack":"value-flip"}`},
		{"/v1/run", `{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3,"engine":"async","schedule":"random","seed":11,"trials":3}`},
		{"/v1/run", `{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3,"engine":"async","schedule":"lifo","seed":5}`},
	}
	return items
}

// driveLoad issues the workload against base and enforces the acceptance
// bar. metricsBases lists the servers whose caches absorb the load — just
// base for a standalone daemon, every shard for a fleet (the router itself
// holds no cache); the hit-ratio bar applies to their aggregate counters.
func driveLoad(out io.Writer, base string, metricsBases []string, concurrency, requests int) error {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: concurrency, MaxIdleConnsPerHost: concurrency},
		Timeout:   60 * time.Second,
	}
	items := workload()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		statuses  = make(map[int]int)
		dropped   int
	)
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				item := items[i%len(items)]
				t0 := time.Now()
				resp, err := client.Post(base+item.path, "application/json", strings.NewReader(item.body))
				d := time.Since(t0)
				if err != nil {
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				// Drain outside the lock: holding it across the body read
				// would serialize response consumption and the driver would
				// no longer sustain -concurrency requests truly in flight.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Fprintf(out, "requests=%d concurrency=%d elapsed=%v rate=%.0f/s\n",
		requests, concurrency, elapsed.Round(time.Millisecond), float64(requests)/elapsed.Seconds())
	codes := make([]int, 0, len(statuses))
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	non2xx := 0
	var non2xxDetail []string
	for _, c := range codes {
		fmt.Fprintf(out, "status %d: %d\n", c, statuses[c])
		if c < 200 || c > 299 {
			non2xx += statuses[c]
			non2xxDetail = append(non2xxDetail, fmt.Sprintf("%d:%d", c, statuses[c]))
		}
	}
	if non2xx > 0 {
		fmt.Fprintf(out, "non-2xx: %d (%s)\n", non2xx, strings.Join(non2xxDetail, " "))
	} else {
		fmt.Fprintln(out, "non-2xx: 0")
	}
	fmt.Fprintf(out, "latency p50=%v p95=%v p99=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))

	hitRatio, err := scrapeHitRatio(client, metricsBases)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cache hit ratio: %.3f\n", hitRatio)

	if dropped > 0 {
		return fmt.Errorf("%d dropped connections", dropped)
	}
	for c, n := range statuses {
		if c >= 500 {
			return fmt.Errorf("%d requests answered %d", n, c)
		}
	}
	if statuses[http.StatusOK] != requests {
		return fmt.Errorf("only %d/%d requests answered 200", statuses[http.StatusOK], requests)
	}
	if hitRatio <= 0.5 {
		return fmt.Errorf("cache hit ratio %.3f ≤ 0.5", hitRatio)
	}
	fmt.Fprintln(out, "load check PASS")
	return nil
}

var (
	cacheHitsRe   = regexp.MustCompile(`(?m)^rmtd_cache_hits_total ([0-9]+)$`)
	cacheMissesRe = regexp.MustCompile(`(?m)^rmtd_cache_misses_total ([0-9]+)$`)
	peerHitsRe    = regexp.MustCompile(`(?m)^rmtd_peer_cache_hits_total ([0-9]+)$`)
)

// scrapeHitRatio aggregates hits/(hits+misses) over every server in bases —
// a fleet's cache effectiveness is a property of the shards jointly, not of
// any one LRU.
func scrapeHitRatio(client *http.Client, bases []string) (float64, error) {
	var hits, misses int64
	for _, base := range bases {
		text, err := scrapeMetrics(client, base)
		if err != nil {
			return 0, err
		}
		h, err := scrapeCounter(text, cacheHitsRe, "rmtd_cache_hits_total")
		if err != nil {
			return 0, err
		}
		m, err := scrapeCounter(text, cacheMissesRe, "rmtd_cache_misses_total")
		if err != nil {
			return 0, err
		}
		hits, misses = hits+h, misses+m
	}
	if hits+misses == 0 {
		return 0, nil
	}
	return float64(hits) / float64(hits+misses), nil
}

func scrapeMetrics(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func scrapeCounter(text []byte, re *regexp.Regexp, name string) (int64, error) {
	m := re.FindSubmatch(text)
	if m == nil {
		return 0, fmt.Errorf("%s missing from /metrics", name)
	}
	return strconv.ParseInt(string(m[1]), 10, 64)
}

// checkByteIdentity serves one deterministic multi-trial run request from
// two fresh in-process servers with different worker counts and requires
// byte-identical bodies — the guarantee the result cache's first-body-wins
// rule relies on.
func checkByteIdentity(out io.Writer) error {
	const req = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4,` +
		`"engine":"async","schedule":"lifo","seed":3,"trials":6,"corrupt":[1],"attack":"silent"}`
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		srv := server.New(server.Options{Workers: workers, LogWriter: io.Discard})
		rec := newLocalPost(srv, "/v1/run", req)
		srv.Close()
		if rec.status != http.StatusOK {
			return fmt.Errorf("byte-identity probe (workers=%d): status %d: %s", workers, rec.status, rec.body.String())
		}
		bodies = append(bodies, rec.body.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		return fmt.Errorf("same request, different bodies across worker counts:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	fmt.Fprintln(out, "byte-identity across worker counts PASS")
	return nil
}

// ------------------------------------------------------------------- watch

// runWatchSmoke drives one POST /v1/watch subscription through a scripted
// churn history and asserts the exact verdict-change events:
//
//	rev 0  base butterfly                   solvable      → event
//	rev 1  +chord 1-2                       solvable      → silent
//	rev 2  -node 3 (third path gone)        unsolvable    → event
//	rev 3  node 3 re-wired 0-3, 3-4         solvable      → event
//
// Any extra line, missing line, wrong revision or wrong verdict fails — the
// stream contract is "rev 0 plus exactly the flips", not "at least them".
// It returns the stream.
func runWatchSmoke(out io.Writer, base string) ([]byte, error) {
	const instanceLine = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}`
	deltas := []string{
		`{"add_edges":[[1,2]]}`,
		`{"remove_nodes":[3]}`,
		`{"add_nodes":[3],"add_edges":[[0,3],[3,4]]}`,
	}
	body := instanceLine + "\n" + strings.Join(deltas, "\n") + "\n"

	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(base+"/v1/watch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("watch: read stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch: status %d: %s", resp.StatusCode, raw)
	}

	type event struct {
		Rev   int    `json:"rev"`
		Key   string `json:"key"`
		Error string `json:"error"`
		PKA   struct {
			Solvable bool `json:"solvable"`
		} `json:"pka"`
		ZCPA *struct {
			Solvable bool `json:"solvable"`
		} `json:"zcpa"`
	}
	var events []event
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("watch: bad stream line %s: %w", line, err)
		}
		if ev.Error != "" {
			return nil, fmt.Errorf("watch: in-band error at rev %d: %s", ev.Rev, ev.Error)
		}
		events = append(events, ev)
	}

	want := []struct {
		rev      int
		solvable bool
	}{{0, true}, {2, false}, {3, true}}
	if len(events) != len(want) {
		return nil, fmt.Errorf("watch: %d events, want exactly %d (rev 0 + the two flips):\n%s", len(events), len(want), raw)
	}
	for i, w := range want {
		ev := events[i]
		if ev.Rev != w.rev {
			return nil, fmt.Errorf("watch: event %d at rev %d, want rev %d", i, ev.Rev, w.rev)
		}
		if ev.PKA.Solvable != w.solvable {
			return nil, fmt.Errorf("watch: rev %d pka solvable=%v, want %v", ev.Rev, ev.PKA.Solvable, w.solvable)
		}
		if ev.ZCPA == nil || ev.ZCPA.Solvable != w.solvable {
			return nil, fmt.Errorf("watch: rev %d zcpa verdict %+v, want solvable=%v", ev.Rev, ev.ZCPA, w.solvable)
		}
		fmt.Fprintf(out, "watch event rev=%d solvable=%v key=%s\n", ev.Rev, ev.PKA.Solvable, ev.Key[:12])
	}
	fmt.Fprintln(out, "watch smoke PASS")
	return raw, nil
}

// ------------------------------------------------------------------- fleet

// runFleet is the -fleet check: boot 3 shards + router, drive the workload
// through the router, then hit every shard directly with every item. The
// direct hits land on shards that do not own the instance; those must serve
// the owning peer's cached bytes (cross-shard peer hits > 0) and every
// reply must be byte-identical to the router's. Last, the watch smoke's
// history goes through the router and directly to every shard: no shard
// caches a revision, so the four streams must be equal by determinism
// alone.
func runFleet(out io.Writer, concurrency, requests int) error {
	stop, routerBase, shardBases, err := bootFleet(3, concurrency)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintf(out, "fleet: %d shards behind router %s\n", len(shardBases), routerBase)

	if err := driveLoad(out, routerBase, shardBases, concurrency, requests); err != nil {
		return err
	}

	client := &http.Client{Timeout: 60 * time.Second}
	items := workload()
	// The router's replies are the fleet's canonical bytes: each comes from
	// the instance's owning shard, cache-hot after the load phase.
	want := make([][]byte, len(items))
	for i, item := range items {
		status, body, err := postOnce(client, routerBase, item)
		if err != nil {
			return fmt.Errorf("router reference %s: %w", item.path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("router reference %s: status %d: %s", item.path, status, body)
		}
		want[i] = body
	}
	for _, base := range shardBases {
		for i, item := range items {
			status, body, err := postOnce(client, base, item)
			if err != nil {
				return fmt.Errorf("direct %s %s: %w", base, item.path, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("direct %s %s: status %d: %s", base, item.path, status, body)
			}
			if !bytes.Equal(body, want[i]) {
				return fmt.Errorf("shard %s serves different bytes than the router for %s:\n%s\nvs\n%s",
					base, item.path, body, want[i])
			}
		}
	}
	fmt.Fprintln(out, "fleet byte-identity across shards PASS")

	var peerHits int64
	for _, base := range shardBases {
		text, err := scrapeMetrics(client, base)
		if err != nil {
			return err
		}
		h, err := scrapeCounter(text, peerHitsRe, "rmtd_peer_cache_hits_total")
		if err != nil {
			return err
		}
		peerHits += h
	}
	fmt.Fprintf(out, "cross-shard peer cache hits: %d\n", peerHits)
	if peerHits == 0 {
		return fmt.Errorf("no cross-shard cache reuse: every shard recomputed its misses")
	}

	routed, err := runWatchSmoke(out, routerBase)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	for _, base := range shardBases {
		direct, err := runWatchSmoke(io.Discard, base)
		if err != nil {
			return fmt.Errorf("direct %s: %w", base, err)
		}
		if !bytes.Equal(direct, routed) {
			return fmt.Errorf("shard %s streams different lines than the router:\n%s\nvs\n%s", base, direct, routed)
		}
	}
	fmt.Fprintln(out, "fleet watch streams identical across router and shards PASS")
	fmt.Fprintln(out, "fleet check PASS")
	return nil
}

// bootFleet starts n quiet in-process shards — each configured with the
// full peer list, as `rmtd -peers ... -self ...` would be — plus a router
// over them, all on ephemeral ports.
func bootFleet(n, concurrency int) (stop func(), routerBase string, shardBases []string, err error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			stopAll()
			return nil, "", nil, lerr
		}
		stops = append(stops, func() { ln.Close() })
		listeners[i] = ln
		shardBases = append(shardBases, "http://"+ln.Addr().String())
	}
	for i, ln := range listeners {
		srv := server.New(server.Options{
			QueueDepth: 2 * concurrency,
			LogWriter:  io.Discard,
			Peers:      shardBases,
			Self:       shardBases[i],
		})
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		stops = append(stops, func() { hs.Close(); srv.Close() })
	}
	rt, err := server.NewRouter(server.RouterOptions{Shards: shardBases, LogWriter: io.Discard})
	if err != nil {
		stopAll()
		return nil, "", nil, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopAll()
		return nil, "", nil, err
	}
	rhs := &http.Server{Handler: rt}
	go rhs.Serve(rln)
	stops = append(stops, func() { rhs.Close() })
	return stopAll, "http://" + rln.Addr().String(), shardBases, nil
}

func postOnce(client *http.Client, base string, item workItem) (int, []byte, error) {
	resp, err := client.Post(base+item.path, "application/json", strings.NewReader(item.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

type localRecorder struct {
	status int
	body   bytes.Buffer
	header http.Header
}

func (r *localRecorder) Header() http.Header         { return r.header }
func (r *localRecorder) WriteHeader(code int)        { r.status = code }
func (r *localRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// newLocalPost runs one POST through the handler without a TCP hop.
func newLocalPost(h http.Handler, path, body string) *localRecorder {
	rec := &localRecorder{status: http.StatusOK, header: make(http.Header)}
	req, _ := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RouterOptions configures a fleet Router. The zero value of every field but
// Shards is usable.
type RouterOptions struct {
	// Shards lists the shard base URLs ("http://host:port"). Every shard must
	// be configured with the same list as its Peers for the fleet-wide
	// ownership ring to agree.
	Shards []string
	// MaxBodyBytes bounds /v1/feasibility and /v1/run bodies. Default 1 MiB
	// (the shard default). A watch stream is forwarded unread, so its lines
	// are bounded by the shard's Options.MaxBodyBytes.
	MaxBodyBytes int64
	// LogWriter receives one JSON object per routed request. Default
	// os.Stderr; use io.Discard to silence.
	LogWriter io.Writer
	// ShardTimeout bounds one routed query end to end. It must exceed the
	// shards' compute deadline (Options.RequestTimeout, default 30s) so
	// the shard's own 504 arrives first and the router's timeout only
	// fires for a shard that is stalled, not merely slow. Default 35s.
	// Watch streams are exempt: they are long-lived by design and are
	// forwarded on a client without an overall deadline.
	ShardTimeout time.Duration
}

// Router is the fleet front door: an HTTP handler that forwards each query
// to the shard owning its instance (consistent hash over
// instance.CanonicalKey, the same ring every shard builds from its Peers
// list). Routing by canonical key — not by raw request bytes — means every
// spelling of the same (G, 𝒵, γ, D, R) tuple lands on the same shard's LRU,
// so the fleet caches each distinct instance exactly once. Watch
// subscriptions, which no shard caches, go to the shards in turn.
//
// The router holds no cache and computes nothing; shard replies are relayed
// verbatim, preserving the shards' byte-identity guarantee end to end.
type Router struct {
	opts    RouterOptions
	ring    *hashRing
	watches atomic.Uint64 // watch subscriptions forwarded, the round-robin cursor
	// client answers the unary query endpoints under ShardTimeout;
	// streamClient forwards long-lived watch subscriptions and has no
	// overall deadline (both share one transport and its pool).
	client       *http.Client
	streamClient *http.Client
	mux          *http.ServeMux
	start        time.Time

	mu       sync.Mutex
	forwards map[string]*atomic.Int64 // shard → requests forwarded

	badRequests atomic.Int64 // rejected before routing (bad body/instance)
	shardErrors atomic.Int64 // transport failures talking to a shard
	timeouts    atomic.Int64 // 504s: shard exceeded ShardTimeout

	logMu sync.Mutex
}

// NewRouter builds a Router over the given shards.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("router: at least one shard is required")
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.LogWriter == nil {
		opts.LogWriter = os.Stderr
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 35 * time.Second
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	rt := &Router{
		opts:         opts,
		ring:         newHashRing(opts.Shards),
		client:       &http.Client{Transport: transport, Timeout: opts.ShardTimeout},
		streamClient: &http.Client{Transport: transport},
		mux:          http.NewServeMux(),
		start:        time.Now(),
		forwards:     make(map[string]*atomic.Int64, len(opts.Shards)),
	}
	for _, s := range opts.Shards {
		rt.forwards[s] = &atomic.Int64{}
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/protocols", rt.handleProtocols)
	rt.mux.HandleFunc("POST /v1/feasibility", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/run", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/watch", rt.handleWatch)
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Forwards returns per-shard forwarded-request counts (tests and the fleet
// load driver use it to check the ring actually spreads the keyspace).
func (rt *Router) Forwards() map[string]int64 {
	out := make(map[string]int64, len(rt.forwards))
	for s, c := range rt.forwards {
		out[s] = c.Load()
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\",\"role\":\"router\"}\n"))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE rmtd_router_uptime_seconds gauge\nrmtd_router_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())
	fmt.Fprintf(w, "# TYPE rmtd_router_shards gauge\nrmtd_router_shards %d\n", len(rt.opts.Shards))
	fmt.Fprintf(w, "# TYPE rmtd_router_bad_requests_total counter\nrmtd_router_bad_requests_total %d\n", rt.badRequests.Load())
	fmt.Fprintf(w, "# TYPE rmtd_router_shard_errors_total counter\nrmtd_router_shard_errors_total %d\n", rt.shardErrors.Load())
	fmt.Fprintf(w, "# TYPE rmtd_router_timeouts_total counter\nrmtd_router_timeouts_total %d\n", rt.timeouts.Load())
	shards := append([]string(nil), rt.opts.Shards...)
	sort.Strings(shards)
	fmt.Fprintf(w, "# TYPE rmtd_router_forwards_total counter\n")
	for _, s := range shards {
		fmt.Fprintf(w, "rmtd_router_forwards_total{shard=%q} %d\n", s, rt.forwards[s].Load())
	}
}

// handleProtocols serves the registry inventory from a fixed shard — every
// shard runs the same binary, so any one's answer is the fleet's answer.
func (rt *Router) handleProtocols(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, rt.ring.owner("/v1/protocols"), nil)
}

// handleQuery routes POST /v1/feasibility and /v1/run: it decodes just the
// instance tuple from the body (leniently — run-specific fields pass
// through untouched for the shard to validate), computes the canonical key,
// and relays the original bytes to the owning shard.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, rt.opts.MaxBodyBytes)
	if !ok {
		rt.badRequests.Add(1)
		return
	}
	var req InstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	in, _, err := req.build()
	if err != nil {
		rt.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	rt.forward(w, r, rt.ring.owner(in.CanonicalKey()), body)
}

// forward relays the request to shard and the shard's reply to the client,
// verbatim. A nil body forwards a GET.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard string, body []byte) {
	start := time.Now()
	var req *http.Request
	var err error
	if body == nil {
		req, err = http.NewRequestWithContext(r.Context(), http.MethodGet, shard+r.URL.Path, nil)
	} else {
		req, err = http.NewRequestWithContext(r.Context(), http.MethodPost, shard+r.URL.Path, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			rt.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, "shard %s: timed out after %s", shard, rt.opts.ShardTimeout)
			rt.logRequest(r.Method, r.URL.Path, shard, http.StatusGatewayTimeout, time.Since(start))
			return
		}
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	defer resp.Body.Close()
	rt.forwards[shard].Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	rt.logRequest(r.Method, r.URL.Path, shard, resp.StatusCode, time.Since(start))
}

// handleWatch forwards POST /v1/watch to the next shard in turn, and reads
// no byte of the body itself: the body is the subscription, a delta stream
// that may not end for a long time, and the shard validates its instance
// line, so a bad one is answered exactly as a lone daemon answers it. Every
// shard computes each revision of a subscription itself and caches none
// (see Server.handleWatch), so any shard serves any stream alike. Streams
// ride streamClient (no overall deadline) and each shard chunk is flushed
// through as it arrives.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	shard := rt.opts.Shards[(rt.watches.Add(1)-1)%uint64(len(rt.opts.Shards))]

	// The client may interleave deltas with our streamed verdicts; allow
	// reading the request body after response bytes have been written.
	// The connection ends with the stream (see Server.handleWatch), a 502
	// included.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Connection", "close")
	// The transport reads the upload on its own goroutine; it must have
	// stopped by the time this handler returns.
	up := newUpload(r.Body, rc)
	defer up.stop()

	start := time.Now()
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, shard+r.URL.Path, up)
	if err != nil {
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	preq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.streamClient.Do(preq)
	if err != nil {
		rt.shardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "shard %s: %v", shard, err)
		return
	}
	defer resp.Body.Close()
	rt.forwards[shard].Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				break
			}
			rc.Flush()
		}
		if rerr != nil {
			break
		}
	}
	rt.logRequest(r.Method, r.URL.Path, shard, resp.StatusCode, time.Since(start))
}

// upload is a routed watch's request body as the shard request reads it.
// A shard stream can end while the client is still uploading, and the
// handler may not return while another goroutine reads its request body,
// so stop cuts a pending read short with a read deadline and turns every
// later read into errStreamEnded. Without a pending read, net/http reads
// what is left of the upload once the handler returns, and stop's deadline
// ends that read after watchDrainGrace, as on a shard.
type upload struct {
	r  io.Reader
	rc *http.ResponseController

	mu      sync.Mutex
	idle    sync.Cond // signalled when a read returns
	reading bool
	stopped bool
}

var errStreamEnded = errors.New("watch stream ended")

func newUpload(r io.Reader, rc *http.ResponseController) *upload {
	u := &upload{r: r, rc: rc}
	u.idle.L = &u.mu
	return u
}

func (u *upload) Read(p []byte) (int, error) {
	u.mu.Lock()
	if u.stopped {
		u.mu.Unlock()
		return 0, errStreamEnded
	}
	u.reading = true
	u.mu.Unlock()
	n, err := u.r.Read(p)
	u.mu.Lock()
	u.reading = false
	u.idle.Broadcast()
	u.mu.Unlock()
	return n, err
}

// stop returns once no read of the upload is pending or can start.
func (u *upload) stop() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.stopped = true
	if !u.reading {
		u.rc.SetReadDeadline(time.Now().Add(watchDrainGrace))
		return
	}
	u.rc.SetReadDeadline(time.Now())
	for u.reading {
		u.idle.Wait()
	}
}

func (rt *Router) logRequest(method, path, shard string, status int, d time.Duration) {
	entry := struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Shard  string  `json:"shard"`
		Status int     `json:"status"`
		Ms     float64 `json:"ms"`
	}{time.Now().UTC().Format(time.RFC3339Nano), method, path, shard, status, float64(d.Microseconds()) / 1000}
	b, err := json.Marshal(entry)
	if err != nil {
		return
	}
	rt.logMu.Lock()
	defer rt.logMu.Unlock()
	rt.opts.LogWriter.Write(append(b, '\n'))
}

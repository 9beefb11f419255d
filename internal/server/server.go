// Package server implements rmtd's long-lived HTTP/JSON query service:
// feasibility verdicts (RMT-cut / 𝒵-pp-cut) and protocol executions for any
// registered protocol × engine × schedule × seed, over the same internal
// packages the CLI tools use.
//
// Two pieces make it a daemon rather than a CGI script:
//
//   - results are cached in a size-bounded LRU keyed by the instance's
//     canonical content hash (instance.CanonicalKey) plus the normalized
//     request parameters, so repeated queries — the common shape when a
//     notebook or script sweeps seeds around one topology — are served from
//     memory, byte-identically;
//   - heavy work passes a gate of two counting semaphores: at most Workers
//     computations run, each on its request's own goroutine, and at most
//     QueueDepth more wait for a slot; beyond that the daemon answers 429
//     at once instead of accumulating goroutines. A request whose deadline
//     passes, or whose client leaves, while it waits answers 504 or 499
//     without starting. The per-request deadline context is plumbed into
//     the compute itself — the cut searches poll it once per candidate,
//     the SMT verdict once per listening set, protocol runs once per round
//     and the RMT-PKA receiver once per candidate of its search — so a
//     running computation answers 504 when it next polls its context, and
//     frees its slot with it, rather than holding it for a stuck
//     exponential search. A client that disconnects early cancels its
//     compute the same way, logged as 499 and counted separately from
//     deadline expiries.
//
// Endpoints: POST /v1/feasibility, POST /v1/run, GET /v1/protocols,
// GET /healthz, GET /metrics (Prometheus text format).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rmt/internal/adversary"
	"rmt/internal/byzantine"
	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/eval"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Options configures a Server. The zero value is usable: every field has a
// production default.
type Options struct {
	// Workers bounds the computations that run at once (≤ 0 = one per
	// logical CPU).
	Workers int
	// QueueDepth bounds admitted-but-unstarted requests; beyond it the
	// daemon sheds load with 429. Default 256.
	QueueDepth int
	// CacheSize bounds the result LRU in entries. Default 1024.
	CacheSize int
	// RequestTimeout is the per-request compute deadline. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// MaxTrials bounds RunRequest.Trials. Default 1024.
	MaxTrials int
	// MaxWatchDeltas bounds the revisions of one /v1/watch subscription.
	// Default 4096.
	MaxWatchDeltas int
	// LogWriter receives one JSON object per request (structured access
	// log). Default os.Stderr; use io.Discard to silence.
	LogWriter io.Writer

	// Peers lists every shard's base URL ("http://host:port") when this
	// server runs as one shard of a fleet, Self included. Before computing a
	// cache miss, the shard asks the instance's owning peer (consistent hash
	// over instance.CanonicalKey — the same ring the Router uses) for its
	// cached body, so requests that leak past the router, or arrive directly,
	// still reuse the fleet's work and stay byte-identical with it.
	Peers []string
	// Self is this shard's own entry in Peers; keys it owns are computed
	// locally without a peer round-trip.
	Self string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 1024
	}
	if o.MaxWatchDeltas <= 0 {
		o.MaxWatchDeltas = 4096
	}
	if o.LogWriter == nil {
		o.LogWriter = os.Stderr
	}
	return o
}

// Server is the rmtd HTTP handler. Create with New, serve with any
// http.Server, drain admitted computations with Close.
type Server struct {
	opts    Options
	gate    *gate
	cache   *resultCache
	metrics *serverMetrics
	mux     *http.ServeMux

	// ring maps canonical instance keys to owning peers; nil when the server
	// runs standalone (no Peers configured).
	ring       *hashRing
	peerClient *http.Client

	logMu sync.Mutex
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		gate:    newGate(opts.Workers, opts.QueueDepth),
		cache:   newResultCache(opts.CacheSize),
		metrics: newServerMetrics(),
		mux:     http.NewServeMux(),
	}
	if len(opts.Peers) > 0 {
		s.ring = newHashRing(opts.Peers)
		s.peerClient = &http.Client{Timeout: 2 * time.Second}
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/protocols", s.instrument("/v1/protocols", s.handleProtocols))
	s.mux.HandleFunc("POST /v1/feasibility", s.instrument("/v1/feasibility", s.handleFeasibility))
	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("POST /v1/watch", s.instrument("/v1/watch", s.handleWatch))
	s.mux.HandleFunc("POST /internal/cache", s.instrument("/internal/cache", s.handleInternalCache))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admission and drains in-flight work — the SIGTERM half of
// graceful shutdown (the HTTP listener is shut down by the caller first).
func (s *Server) Close() { s.gate.close() }

// CacheHitRatio exposes hits/(hits+misses) for tests and the load driver.
func (s *Server) CacheHitRatio() float64 { return s.metrics.hitRatio() }

// PeerCacheHits exposes the number of bodies this shard served out of a
// peer's cache instead of recomputing (tests and the fleet load driver).
func (s *Server) PeerCacheHits() int64 { return s.metrics.peerHits.Load() }

// instrument wraps a handler with latency/status accounting and the
// structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		d := time.Since(start)
		s.metrics.observe(endpoint, rec.code, d)
		s.logRequest(r.Method, endpoint, rec.code, d, rec.cache)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	code  int
	cache string // "hit", "miss" or "" for uncacheable endpoints
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// and EnableFullDuplex — the watch stream needs both.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) logRequest(method, path string, status int, d time.Duration, cache string) {
	entry := struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		Ms     float64 `json:"ms"`
		Cache  string  `json:"cache,omitempty"`
	}{time.Now().UTC().Format(time.RFC3339Nano), method, path, status, float64(d.Microseconds()) / 1000, cache}
	b, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.opts.LogWriter.Write(append(b, '\n'))
}

// ---------------------------------------------------------------- responses

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
	writeJSON(w, status, append(b, '\n'))
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ----------------------------------------------------------- plain handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.gate.depth(), s.gate.workers(), s.cache.len())
}

// ProtocolInfo describes one registered protocol to clients.
type ProtocolInfo struct {
	Name               string `json:"name"`
	NeedsFullKnowledge bool   `json:"needs_full_knowledge,omitempty"`
	AllDecide          bool   `json:"all_decide,omitempty"`
}

// ProtocolsResponse is the GET /v1/protocols body: everything a client can
// name in a RunRequest.
type ProtocolsResponse struct {
	Protocols []ProtocolInfo `json:"protocols"`
	Engines   []string       `json:"engines"`
	Schedules []string       `json:"schedules"`
	Attacks   []string       `json:"attacks"`
	Knowledge []string       `json:"knowledge"`
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	resp := ProtocolsResponse{
		Engines:   network.EngineNames(),
		Schedules: network.SchedulerNames(),
		Attacks:   byzantine.Names(),
	}
	for _, name := range protocol.Names() {
		p, _ := protocol.Get(name)
		caps := p.Caps()
		resp.Protocols = append(resp.Protocols, ProtocolInfo{
			Name:               name,
			NeedsFullKnowledge: caps.NeedsFullKnowledge,
			AllDecide:          caps.AllDecide,
		})
	}
	for _, k := range gen.Levels() {
		resp.Knowledge = append(resp.Knowledge, k.String())
	}
	body, err := marshalBody(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// --------------------------------------------------------- instance parsing

// InstanceRequest is the textual instance tuple shared by both POST
// endpoints — the same formats the CLI flags accept.
type InstanceRequest struct {
	// Graph is an edge list, e.g. "0-1 0-2 1-3 2-3".
	Graph string `json:"graph"`
	// Structure is the adversary structure, e.g. "1;2" ({1},{2}).
	// Empty means no corruption.
	Structure string `json:"structure,omitempty"`
	// Knowledge is adhoc (default), radius1..radius3, or full.
	Knowledge string `json:"knowledge,omitempty"`
	Dealer    int    `json:"dealer"`
	Receiver  int    `json:"receiver"`
}

func (q InstanceRequest) build() (*instance.Instance, gen.Knowledge, error) {
	spec, err := cliutil.LoadSpec("", q.Graph, q.Structure, q.Knowledge, q.Dealer, q.Receiver)
	if err != nil {
		return nil, 0, err
	}
	in, err := spec.Instance()
	return in, spec.Knowledge, err
}

// ------------------------------------------------------------ computation

// statusClientClosedRequest is nginx's convention for "the client went away
// before we could answer" — there is no official HTTP code for it.
const statusClientClosedRequest = 499

// The failed outcomes of compute, each wrapped with its detail.
var (
	errOverloaded   = errors.New("overloaded")
	errClientClosed = errors.New("client closed the request")
	errDeadline     = errors.New("deadline exceeded")
)

// compute runs fn through the gate, on the calling goroutine, under the
// per-request deadline derived from parent, and returns its body. fn
// receives the deadline context, which is also canceled when parent is
// (the client disconnected); fn must poll it during long work so an
// abandoned request frees its slot. Every failed outcome is recorded in
// the metrics: overload as errOverloaded (rmtd_rejected_total), a client
// disconnect as errClientClosed (rmtd_client_cancels_total — not a
// compute timeout, and it must not skew that metric), deadline expiry as
// errDeadline (rmtd_timeouts_total), whether it came while the request
// waited for a slot or when fn polled the context.
func (s *Server) compute(parent context.Context, fn func(ctx context.Context) ([]byte, error)) (body []byte, err error) {
	ctx, cancel := context.WithTimeout(parent, s.opts.RequestTimeout)
	defer cancel()
	gerr := s.gate.do(ctx, func() {
		defer func() {
			// A panicking query must not take the daemon down with it:
			// protocol and search code trusts its inputs more than a
			// network service should.
			if p := recover(); p != nil {
				body, err = nil, fmt.Errorf("panic: %v", p)
			}
		}()
		body, err = fn(ctx)
	})
	if errors.Is(gerr, errOverloaded) {
		s.metrics.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d requests in flight", errOverloaded, s.gate.depth())
	}
	if gerr == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return body, err
	}
	if parent.Err() != nil {
		s.metrics.cancels.Add(1)
		return nil, errClientClosed
	}
	s.metrics.timeouts.Add(1)
	return nil, fmt.Errorf("%w after %v", errDeadline, s.opts.RequestTimeout)
}

// serveCached answers a POST endpoint through cached, mapping a failed
// compute to 400 (a protocol.CapsError: the protocol refused the
// instance), 429 (overload), 499 (client disconnect), 504 (deadline) or
// 500. ownerKey is the instance's canonical content hash, the unit of
// fleet ownership.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, ownerKey string, fn func(ctx context.Context) ([]byte, error)) {
	body, source, err := s.cached(r.Context(), key, ownerKey, json.Valid, fn)
	if rec, ok := w.(*statusRecorder); ok {
		rec.cache = source
	}
	if err == nil {
		writeJSON(w, http.StatusOK, body)
		return
	}
	code := http.StatusInternalServerError
	switch {
	case protocol.IsCapsError(err):
		code = http.StatusBadRequest
	case errors.Is(err, errOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, errClientClosed):
		code = statusClientClosedRequest
	case errors.Is(err, errDeadline):
		code = http.StatusGatewayTimeout
	}
	writeError(w, code, "%v", err)
}

// cached returns the body for key: from the result LRU, else — on a fleet
// shard that does not own ownerKey — from the owning peer's cache (see
// fetchFromPeer), else computed by fn through compute. A peer's body is
// stored only if valid accepts it. Every stored body is read back, because
// the incumbent wins (see resultCache.put): equal keys get byte-identical
// bodies regardless of worker count, arrival order or shard. source is
// "hit", "peer" or "miss" (computed, or failed with err).
func (s *Server) cached(ctx context.Context, key, ownerKey string, valid func([]byte) bool, fn func(ctx context.Context) ([]byte, error)) (body []byte, source string, err error) {
	if body, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return body, "hit", nil
	}
	s.metrics.cacheMisses.Add(1)
	body, ok := s.fetchFromPeer(ctx, key, ownerKey)
	source = "peer"
	if !ok || !valid(body) {
		source = "miss"
		if body, err = s.compute(ctx, fn); err != nil {
			return nil, source, err
		}
	}
	s.cache.put(key, body)
	if stored, ok := s.cache.get(key); ok {
		body = stored
	}
	return body, source, nil
}

// fetchFromPeer asks the owning peer's cache for key when this server is a
// fleet shard that does not own ownerKey. A hit returns the owner's exact
// bytes (preserving fleet-wide byte-identity); any miss or transport error
// falls back to local compute — the peer protocol is an optimization, never
// a dependency.
func (s *Server) fetchFromPeer(ctx context.Context, key, ownerKey string) ([]byte, bool) {
	if s.ring == nil {
		return nil, false
	}
	owner := s.ring.owner(ownerKey)
	if owner == "" || owner == s.opts.Self {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/internal/cache", strings.NewReader(key))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.opts.MaxBodyBytes*64))
	if err != nil {
		s.metrics.peerMisses.Add(1)
		return nil, false
	}
	s.metrics.peerHits.Add(1)
	return body, true
}

// handleInternalCache is the shard-to-shard cache protocol: the request body
// is a full result-cache key, the response is the cached body verbatim (200)
// or 404 on a miss. It never computes — peers fall back to their own compute —
// so a fetch storm cannot amplify load across the fleet.
func (s *Server) handleInternalCache(w http.ResponseWriter, r *http.Request) {
	key, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read key: %v", err)
		return
	}
	body, ok := s.cache.get(string(key))
	if !ok {
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// decode reads the request body into v, answering 400 when it is not one
// JSON document (see decodeOne).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeOne(io.LimitReader(r.Body, s.opts.MaxBodyBytes), v); err != nil {
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return false
	}
	return true
}

// errTrailingData rejects bytes other than whitespace after a document.
var errTrailingData = errors.New("invalid data after the JSON document")

// decodeOne decodes exactly one JSON document from r into v, rejecting
// unknown fields and, as json.Unmarshal does (and so the router), anything
// but whitespace after the document: a second read must hit io.EOF.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// -------------------------------------------------------------- feasibility

// CutWitness is an impossibility witness (C1, C2, B) in JSON form.
type CutWitness struct {
	C1 []int `json:"c1"`
	C2 []int `json:"c2"`
	B  []int `json:"b"`
}

// Verdict is one model's feasibility answer: solvable, or a cut witness.
type Verdict struct {
	Solvable bool        `json:"solvable"`
	Witness  *CutWitness `json:"witness,omitempty"`
}

// FeasibilityRequest is the POST /v1/feasibility body: the instance tuple
// plus the message-adversary suppression budget d for the MBRB verdict.
type FeasibilityRequest struct {
	InstanceRequest
	// MABudget is the message adversary's per-broadcast suppression budget
	// d for the MBRB bound n > 3t + 2d; default 0 (no suppression). The
	// MBRB verdict is only present for complete-graph instances, where the
	// bound is tight.
	MABudget int `json:"ma_budget,omitempty"`
	// Listen is the adversary's listening structure ℒ for the SMT verdict,
	// in the CLI structure syntax ("2;3" or "2,3;4"); empty means no
	// listening (the SMT verdict then degenerates to the disruption
	// condition alone).
	Listen string `json:"listen,omitempty"`
}

// MBRBVerdict is the signature-free reliable-broadcast answer: the bound
// n > 3t + 2d evaluated on the instance's (n, t) and the requested d.
type MBRBVerdict = feasibility.MBRBVerdict

// SMTVerdict is the secure-message-transmission answer under the fully
// generalised adversary (𝒵, ℒ): Dowden's disruption and secrecy cut
// conditions, with the witness on whichever side holds — the share-routing
// path family when feasible, the violated cut when not.
type SMTVerdict struct {
	Feasible bool `json:"feasible"`
	// Listen echoes the listening structure's maximal sets as normalized.
	Listen [][]int `json:"listen"`
	// Paths is the canonical witness family the smt protocol would route
	// shares over; present exactly when feasible.
	Paths [][]int `json:"paths,omitempty"`
	// DisruptionCut is the corruption ground when it alone disconnects the
	// dealer from the receiver.
	DisruptionCut []int `json:"disruption_cut,omitempty"`
	// SecrecyCut and SecrecyListen witness a failed secrecy condition: the
	// ground ∪ listening-set union that separates the terminals, and the
	// maximal listening set responsible.
	SecrecyCut    []int `json:"secrecy_cut,omitempty"`
	SecrecyListen []int `json:"secrecy_listen,omitempty"`
}

// FeasibilityResponse is the POST /v1/feasibility body. PKA is the partial
// knowledge characterization (Definition 3 RMT-cut); ZCPA is the ad hoc one
// (Definition 7 𝒵-pp cut), present only for adhoc-knowledge instances,
// where it equals PKA; MBRB is the message-adversary broadcast bound
// n > 3t + 2d, present only for complete-graph instances.
type FeasibilityResponse struct {
	// Key is the instance's canonical content hash — equal keys mean equal
	// (G, 𝒵, γ, D, R) tuples, however the request spelled them.
	Key       string       `json:"key"`
	Knowledge string       `json:"knowledge"`
	PKA       Verdict      `json:"pka"`
	ZCPA      *Verdict     `json:"zcpa,omitempty"`
	MBRB      *MBRBVerdict `json:"mbrb,omitempty"`
	SMT       *SMTVerdict  `json:"smt,omitempty"`
}

func (s *Server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	var req FeasibilityRequest
	if !s.decode(w, r, &req) {
		return
	}
	in, level, err := req.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	if req.MABudget < 0 {
		writeError(w, http.StatusBadRequest, "ma_budget: must be >= 0")
		return
	}
	listen, err := cliutil.ParseStructure(req.Listen)
	if err != nil {
		writeError(w, http.StatusBadRequest, "listen: %v", err)
		return
	}
	// The key carries the knowledge level alongside the canonical hash:
	// the response depends on both (the "knowledge" field, and the
	// adhoc-only ZCPA verdict), and distinct levels can share a canonical
	// hash — on triangle-free graphs the radius-1 view γ coincides with the
	// ad hoc one, so radius1 and adhoc requests describe the same instance
	// tuple yet need different bodies. v2 added the suppression budget,
	// which parameterizes the MBRB verdict; v3 added the normalized
	// listening structure, which parameterizes the SMT verdict — the bump
	// retires every v2-era entry, so a cached no-listening body can never
	// answer a listening-structure request.
	key := fmt.Sprintf("feasibility-v3\n%s\nd=%d\nlisten=%s\n%s",
		level, req.MABudget, cliutil.FormatStructure(listen), in.CanonicalKey())
	s.serveCached(w, r, key, in.CanonicalKey(), func(ctx context.Context) ([]byte, error) {
		resp := FeasibilityResponse{Key: in.CanonicalKey(), Knowledge: level.String()}
		if mv, err := feasibility.MBRBVerdictFor(in, req.MABudget); err == nil {
			resp.MBRB = &mv
		}
		var err error
		if resp.SMT, err = smtVerdictOf(ctx, in, listen); err != nil {
			return nil, err
		}
		var cut core.IncrementalCut
		if resp.PKA, resp.ZCPA, err = s.cutVerdicts(ctx, &cut, in, level); err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
}

// cutVerdicts checks in for Definition 3's RMT-cut with ic and renders the
// pka verdict, and at ad hoc knowledge the zcpa verdict of Definition 7's
// 𝒵-pp cut, which is the same verdict: V(γ(u)) = N(u) ∪ {u} and u ∉ C2, so
// the two test every side alike (DESIGN §4, §29). z is nil at other levels.
// A zero ic runs a plain Search (/v1/feasibility); a subscription's ic
// first repairs the last revision's witness (/v1/watch). Each check is
// counted in rmtd_cut_checks_total.
func (s *Server) cutVerdicts(ctx context.Context, ic *core.IncrementalCut, in *instance.Instance, level gen.Knowledge) (pka Verdict, z *Verdict, err error) {
	before, _ := ic.Stats()
	w, found, err := ic.CheckCtx(ctx, in)
	if err != nil {
		return Verdict{}, nil, err
	}
	after, _ := ic.Stats()
	s.metrics.cutChecks[after-before].Add(1)
	pka.Solvable = !found
	if found {
		pka.Witness = &CutWitness{C1: members(w.C1), C2: members(w.C2), B: members(w.B)}
	}
	if level == gen.AdHoc {
		zv := pka
		z = &zv
	}
	return pka, z, nil
}

// seedCut primes ic with the pka verdict of a revision served from a cache
// rather than computed, so the next revision can still repair. A cached
// witness is verified first: the body is cache-authentic, but the checker
// trusts its seeds.
func seedCut(ic *core.IncrementalCut, in *instance.Instance, v Verdict) {
	switch {
	case v.Witness != nil:
		w := core.RMTCut{C1: nodeset.Of(v.Witness.C1...), C2: nodeset.Of(v.Witness.C2...), B: nodeset.Of(v.Witness.B...)}
		if core.VerifyRMTCut(in, w) == nil {
			ic.Seed(w, true)
		}
	case v.Solvable:
		ic.Seed(core.RMTCut{}, false)
	}
}

// smtVerdictOf evaluates the Dowden cut conditions under the requested
// listening structure and flattens the witnesses for JSON. It polls ctx
// once per maximal listening set and returns its error, which compute
// answers as it answers the cut search's.
func smtVerdictOf(ctx context.Context, in *instance.Instance, listen adversary.Structure) (*SMTVerdict, error) {
	fv, err := feasibility.SMTVerdictCtx(ctx, in, listen)
	if err != nil {
		return nil, err
	}
	v := &SMTVerdict{Feasible: fv.Feasible, Listen: make([][]int, 0, listen.NumMaximal())}
	for _, l := range listen.Maximal() {
		v.Listen = append(v.Listen, members(l))
	}
	for _, p := range fv.Paths {
		v.Paths = append(v.Paths, []int(p))
	}
	if fv.DisruptionFound {
		v.DisruptionCut = members(fv.DisruptionCut)
	}
	if fv.SecrecyFound {
		v.SecrecyCut = members(fv.SecrecyCut)
		v.SecrecyListen = members(fv.SecrecyListen)
	}
	return v, nil
}

// members is Members() with a non-nil result, so JSON renders [] not null.
func members(s nodeset.Set) []int {
	m := s.Members()
	if m == nil {
		m = []int{}
	}
	return m
}

// --------------------------------------------------------------------- runs

// RunRequest asks for Trials executions of a registered protocol on the
// instance, each with a deterministically derived schedule seed.
type RunRequest struct {
	InstanceRequest
	// Protocol is a registry name (GET /v1/protocols); default "pka".
	Protocol string `json:"protocol,omitempty"`
	// Value is the dealer value x_D; default "1".
	Value string `json:"value,omitempty"`
	// Engine is lockstep (default), goroutine or async.
	Engine string `json:"engine,omitempty"`
	// Schedule names the async delivery policy; default "sync". Requires
	// the async engine for any other value.
	Schedule string `json:"schedule,omitempty"`
	// Seed is the master seed; trial i runs with
	// eval.TrialSeed(Seed, 0, i), reported per trial for reproduction.
	Seed int64 `json:"seed,omitempty"`
	// Trials is the number of executions; default 1.
	Trials int `json:"trials,omitempty"`
	// Corrupt lists the corrupted nodes (must be admissible under the
	// structure); empty means an all-honest run.
	Corrupt []int `json:"corrupt,omitempty"`
	// Attack is the Byzantine strategy for the corrupted nodes; default
	// "silent".
	Attack string `json:"attack,omitempty"`
	// Forged is the attacker's preferred wrong value; default
	// "forged-by-<attack>".
	Forged string `json:"forged,omitempty"`
	// MaxRounds bounds each execution; 0 = engine default (2·|V|+2).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Transcript embeds each trial's event stream (JSONL tracer events) in
	// the response.
	Transcript bool `json:"transcript,omitempty"`
}

// TrialResult is one execution's outcome.
type TrialResult struct {
	// Seed is the derived schedule seed; rmtsim -seed reproduces the trial.
	Seed     int64  `json:"seed"`
	Decided  bool   `json:"decided"`
	Decision string `json:"decision,omitempty"`
	// Correct reports Decision == the dealer value (safety).
	Correct bool            `json:"correct"`
	Rounds  int             `json:"rounds"`
	Metrics network.Metrics `json:"metrics"`
	// Transcript holds the run's event stream when requested.
	Transcript []json.RawMessage `json:"transcript,omitempty"`
}

// RunResponse is the POST /v1/run body.
type RunResponse struct {
	Key      string        `json:"key"`
	Protocol string        `json:"protocol"`
	Engine   string        `json:"engine"`
	Schedule string        `json:"schedule"`
	Seed     int64         `json:"seed"`
	Trials   []TrialResult `json:"trials"`
}

func (r *RunRequest) normalize() {
	if r.Protocol == "" {
		r.Protocol = protocol.PKA
	}
	if r.Value == "" {
		r.Value = "1"
	}
	if r.Engine == "" {
		r.Engine = "lockstep"
	}
	if r.Schedule == "" {
		r.Schedule = "sync"
	}
	if r.Trials <= 0 {
		r.Trials = 1
	}
	if r.Attack == "" {
		r.Attack = "silent"
	}
	if r.Forged == "" {
		r.Forged = "forged-by-" + r.Attack
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.normalize()
	in, _, err := req.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}

	// Validate everything on the request goroutine so bad requests are
	// rejected in microseconds without taking a gate slot. The
	// protocol's capability check runs at assembly, inside the gate.
	run, err := cliutil.ResolveRun(network.Blueprint{
		Protocol: req.Protocol, Value: req.Value, Corrupt: req.Corrupt, Attack: req.Attack, Forged: req.Forged,
	}, in)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng, err := network.EngineByName(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := network.NewScheduler(req.Schedule, 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if eng != network.Async && req.Schedule != "sync" {
		writeError(w, http.StatusBadRequest, "schedule %q requires \"engine\": \"async\"", req.Schedule)
		return
	}
	if req.Trials > s.opts.MaxTrials {
		writeError(w, http.StatusBadRequest, "trials %d exceeds the limit %d", req.Trials, s.opts.MaxTrials)
		return
	}
	if req.MaxRounds < 0 {
		writeError(w, http.StatusBadRequest, "max_rounds must be ≥ 0")
		return
	}

	key := runCacheKey(in, &req)
	s.serveCached(w, r, key, in.CanonicalKey(), func(ctx context.Context) ([]byte, error) {
		resp, err := s.runTrials(ctx, run, &req, eng)
		if err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
}

// runCacheKey derives the result-cache key from the canonical instance hash
// and the normalized run parameters — everything the response depends on.
func runCacheKey(in *instance.Instance, req *RunRequest) string {
	var b strings.Builder
	b.WriteString("run-v1\n")
	b.WriteString(in.CanonicalKey())
	fmt.Fprintf(&b, "\nprotocol: %s\nvalue: %s\nengine: %s\nschedule: %s\nseed: %d\ntrials: %d\ncorrupt: %s\nattack: %s\nforged: %s\nmaxrounds: %d\ntranscript: %v\n",
		req.Protocol, req.Value, req.Engine, req.Schedule, req.Seed, req.Trials,
		nodeset.Of(req.Corrupt...).Key(), req.Attack, req.Forged, req.MaxRounds, req.Transcript)
	return b.String()
}

// runTrialWorkers bounds one request's internal fan-out so a large Trials
// value cannot monopolize the host on top of the gate's own parallelism.
const runTrialWorkers = 4

func (s *Server) runTrials(ctx context.Context, run *cliutil.Run, req *RunRequest, eng network.Engine) (*RunResponse, error) {
	in, xD := run.Instance, network.Value(req.Value)
	var firstErr error
	var errMu sync.Mutex
	workers := 1
	if req.Trials > 1 {
		workers = runTrialWorkers
	}
	fail := func(err error) TrialResult {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		return TrialResult{}
	}
	trials := eval.ParallelMap(req.Trials, workers, func(i int) TrialResult {
		// The deadline is polled between trials and, through the run's
		// context, once per round: max_rounds has no cap, so one trial of
		// a never-deciding run could otherwise hold the worker far past it.
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		schedSeed := eval.TrialSeed(req.Seed, 0, i)
		cell := protocol.Cell{Engine: eng, SchedSeed: schedSeed}
		if eng == network.Async {
			cell.Schedule = req.Schedule
		}
		opts, err := run.Options(cell)
		if err != nil {
			return fail(err)
		}
		opts.MaxRounds, opts.Context = req.MaxRounds, ctx
		var transcript bytes.Buffer
		var jt *network.JSONLTracer
		if req.Transcript {
			jt = network.NewJSONLTracer(&transcript)
			opts.Tracers = []network.Tracer{jt}
		}
		res, err := protocol.Run(run.Protocol, in, xD, opts)
		if err != nil {
			return fail(err)
		}
		tr := TrialResult{Seed: schedSeed, Rounds: res.Rounds, Metrics: res.Metrics}
		if v, decided := res.DecisionOf(in.Receiver); decided {
			tr.Decided = true
			tr.Decision = string(v)
			tr.Correct = v == xD
		}
		if jt != nil && jt.Err() == nil {
			for _, line := range bytes.Split(bytes.TrimSpace(transcript.Bytes()), []byte("\n")) {
				if len(line) > 0 {
					tr.Transcript = append(tr.Transcript, json.RawMessage(line))
				}
			}
		}
		return tr
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return &RunResponse{
		Key:      in.CanonicalKey(),
		Protocol: req.Protocol,
		Engine:   req.Engine,
		Schedule: req.Schedule,
		Seed:     req.Seed,
		Trials:   trials,
	}, nil
}

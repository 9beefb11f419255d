package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// serverMetrics accumulates the daemon's observability counters: request
// totals per endpoint and status, cache hits/misses, queue depth, and
// per-endpoint latency histograms. Everything is atomic or mutex-guarded;
// render writes the Prometheus text exposition format so any scraper (or
// the loadtest driver, or `curl /metrics | grep`) can consume it.
type serverMetrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[requestKey]*atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	peerHits    atomic.Int64 // bodies served from a fleet peer's cache
	peerMisses  atomic.Int64 // peer asked, answered 404 (or was unreachable)
	rejected    atomic.Int64 // queue-full backpressure: 429s and refused watch revisions
	timeouts    atomic.Int64 // compute-deadline expiries: 504s and timed-out watch revisions
	cancels     atomic.Int64 // client disconnected mid-compute: 499s and abandoned watches
	watchEvents atomic.Int64 // verdict-change lines streamed by /v1/watch

	instanceHits   atomic.Int64 // /v1/run instances found in the instance cache
	instanceMisses atomic.Int64 // /v1/run instances parsed and built

	cutChecks [2]atomic.Int64 // cut checks answered by [0] the full search, [1] a witness repair

	latency map[string]*histogram // endpoint → latency histogram
}

type requestKey struct {
	endpoint string
	code     int
}

// numBuckets is the number of finite histogram bounds.
const numBuckets = 9

// latencyBuckets are the histogram upper bounds in seconds. The protocols
// here run in microseconds to low milliseconds; the tail buckets catch
// queueing under load.
var latencyBuckets = [numBuckets]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

type histogram struct {
	buckets [numBuckets + 1]atomic.Int64 // one per bound, plus +Inf
	sum     atomic.Int64                 // nanoseconds
	count   atomic.Int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		start:    time.Now(),
		requests: make(map[requestKey]*atomic.Int64),
		latency:  make(map[string]*histogram),
	}
}

// observe records one finished request.
func (m *serverMetrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	counter, ok := m.requests[requestKey{endpoint, code}]
	if !ok {
		counter = &atomic.Int64{}
		m.requests[requestKey{endpoint, code}] = counter
	}
	h, ok := m.latency[endpoint]
	if !ok {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	counter.Add(1)
	secs := d.Seconds()
	for i, bound := range latencyBuckets {
		if secs <= bound {
			h.buckets[i].Add(1)
		}
	}
	h.buckets[numBuckets].Add(1) // +Inf
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// hitRatio returns hits/(hits+misses), 0 when no cacheable request was seen.
func (m *serverMetrics) hitRatio() float64 {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// render writes the Prometheus text format. queueDepth, workers and the
// two caches' entry counts are sampled by the caller (they live on the
// server). The rmtd_cache_* series count the result cache only.
func (m *serverMetrics) render(w io.Writer, queueDepth, workers, cacheEntries, instanceEntries int) {
	fmt.Fprintf(w, "# TYPE rmtd_uptime_seconds gauge\nrmtd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "# TYPE rmtd_workers gauge\nrmtd_workers %d\n", workers)
	fmt.Fprintf(w, "# TYPE rmtd_queue_depth gauge\nrmtd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# TYPE rmtd_cache_entries gauge\nrmtd_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(w, "# TYPE rmtd_cache_hits_total counter\nrmtd_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "# TYPE rmtd_cache_misses_total counter\nrmtd_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "# TYPE rmtd_cache_hit_ratio gauge\nrmtd_cache_hit_ratio %.6f\n", m.hitRatio())
	fmt.Fprintf(w, "# TYPE rmtd_instance_cache_entries gauge\nrmtd_instance_cache_entries %d\n", instanceEntries)
	fmt.Fprintf(w, "# TYPE rmtd_instance_cache_hits_total counter\nrmtd_instance_cache_hits_total %d\n", m.instanceHits.Load())
	fmt.Fprintf(w, "# TYPE rmtd_instance_cache_misses_total counter\nrmtd_instance_cache_misses_total %d\n", m.instanceMisses.Load())
	fmt.Fprintf(w, "# TYPE rmtd_peer_cache_hits_total counter\nrmtd_peer_cache_hits_total %d\n", m.peerHits.Load())
	fmt.Fprintf(w, "# TYPE rmtd_peer_cache_misses_total counter\nrmtd_peer_cache_misses_total %d\n", m.peerMisses.Load())
	fmt.Fprintf(w, "# TYPE rmtd_rejected_total counter\nrmtd_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# TYPE rmtd_timeouts_total counter\nrmtd_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "# TYPE rmtd_client_cancels_total counter\nrmtd_client_cancels_total %d\n", m.cancels.Load())
	fmt.Fprintf(w, "# TYPE rmtd_watch_events_total counter\nrmtd_watch_events_total %d\n", m.watchEvents.Load())
	fmt.Fprintf(w, "# TYPE rmtd_cut_checks_total counter\nrmtd_cut_checks_total{answer=\"repaired\"} %d\nrmtd_cut_checks_total{answer=\"searched\"} %d\n",
		m.cutChecks[1].Load(), m.cutChecks[0].Load())

	// Counter cells are never removed, so a snapshot of the pointers under
	// the lock is enough; the atomic loads happen outside it.
	m.mu.Lock()
	reqs := make(map[requestKey]*atomic.Int64, len(m.requests))
	reqKeys := make([]requestKey, 0, len(m.requests))
	for k, v := range m.requests {
		reqs[k] = v
		reqKeys = append(reqKeys, k)
	}
	lats := make(map[string]*histogram, len(m.latency))
	endpoints := make([]string, 0, len(m.latency))
	for e, h := range m.latency {
		lats[e] = h
		endpoints = append(endpoints, e)
	}
	m.mu.Unlock()
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	sort.Strings(endpoints)

	fmt.Fprintf(w, "# TYPE rmtd_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "rmtd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, reqs[k].Load())
	}
	fmt.Fprintf(w, "# TYPE rmtd_request_seconds histogram\n")
	for _, e := range endpoints {
		h := lats[e]
		for i, bound := range latencyBuckets {
			fmt.Fprintf(w, "rmtd_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", e, bound, h.buckets[i].Load())
		}
		fmt.Fprintf(w, "rmtd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", e, h.buckets[numBuckets].Load())
		fmt.Fprintf(w, "rmtd_request_seconds_sum{endpoint=%q} %.6f\n", e, time.Duration(h.sum.Load()).Seconds())
		fmt.Fprintf(w, "rmtd_request_seconds_count{endpoint=%q} %d\n", e, h.count.Load())
	}
}

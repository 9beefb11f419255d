package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rmt/internal/server"
)

// setupReps is how many times a run builds and warms a fresh server;
// setup_s is the median, and the last server is the one timed.
const setupReps = 9

// refCadence is the op time between two kernel samples: the kernel's ≈0.14
// ms then costs about 3% of a run. Host speed on small shared VMs swings by
// ±15% within milliseconds, so samples must be this dense for the samples
// around an op to describe the host it ran on.
const refCadence = 5 * time.Millisecond

// wrapHandler lets tests put a shim around rmtd's handler; nil serves the
// handler as is.
type wrapHandler func(http.Handler) http.Handler

// recorder is a minimal http.ResponseWriter: rmtd's handlers need only a
// status code and a body (Flush and full duplex are optional and fail
// softly, as on any writer that lacks them).
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// serve sends one op through the handler in-process and returns the
// status, the body and the handler's wall time. Request construction is
// off the clock.
func serve(h http.Handler, o op) (int, []byte, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		panic(err) // paths are constants of this package
	}
	rec := &recorder{hdr: http.Header{}, code: http.StatusOK}
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.code, rec.body.Bytes(), time.Since(start)
}

// reply is one op's outcome.
type reply struct {
	code int
	body []byte
}

// clock runs the reference kernel between ops at refCadence and keeps its
// samples, so every op's time can be scaled by the host speed around it.
type clock struct {
	k        *refKernel
	samples  []refSample
	since    time.Duration // op time since the last sample
	spent    time.Duration // total kernel time, excluded from CPU
	inFlight atomic.Int32  // ops currently inside the handler
	maxInFly int32         // the most ever, for the one-op-in-flight test
}

func (c *clock) sample(at int) {
	d := c.k.run(uint64(len(c.samples)))
	c.samples = append(c.samples, refSample{at, d})
	c.spent += d
	c.since = 0
}

// tick records an op's time and samples the kernel when due.
func (c *clock) tick(next int, d time.Duration) {
	c.since += d
	if c.since >= refCadence {
		c.sample(next)
	}
}

// phases records when a pass's phases began, for the tests that keep input
// generation and the RSS reset off set-up's clock.
type phases struct {
	rssReset, setupStart, timedStart, timedEnd time.Time
}

// runResult is everything one measured pass produced.
type runResult struct {
	phases    phases
	replies   []reply       // timed ops, in order
	warm      []reply       // the timed server's warm-up replies
	prime     []reply       // the timed server's priming replies
	raw       []float64     // per-op handler time, ns
	scaled    []float64     // per-op handler time × its host scale, ns
	samples   []refSample   // kernel samples of the timed phase
	setup     []float64     // scaled set-up seconds, one per repetition
	cpu       time.Duration // process CPU over the timed phase, kernel excluded
	peakRSS   float64       // MB, VmHWM since the reset after generation
	hitBefore float64       // server cache hit ratio after set-up
	hitAfter  float64       // and after the timed phase
	gcCycles  uint64        // GC cycles in the timed phase
	gcBytes   uint64        // heap bytes allocated in the timed phase
	maxOps    int32         // most ops ever inside the handler at once
	srv       *server.Server
}

// measure sets up and times one pass over p, calling afterOp (when
// non-nil) after each timed op, off its clock. The returned server is the
// timed one, still open; the caller closes it.
func measure(p *plan, wrap wrapHandler, afterOp func(i int, o op, rep reply, d time.Duration)) *runResult {
	res := &runResult{}
	// One P: the client, rmtd's pool worker and the GC take turns on the
	// vCPU the kernel samples. With one P per vCPU an op's time also
	// depended on waking the other vCPU and on its speed, which the kernel
	// cannot see (README.md, "Host normalization").
	runtime.GOMAXPROCS(1)
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "rmtdbench: peak RSS not reset:", err)
	}
	res.phases.rssReset = time.Now()

	c := &clock{k: newRefKernel()}
	res.phases.setupStart = time.Now()
	for rep := 0; rep < setupReps; rep++ {
		srv, prime, warm, secs := setUp(p, c.k)
		res.setup = append(res.setup, secs)
		if res.srv != nil {
			res.srv.Close()
		}
		res.srv, res.warm, res.prime = srv, warm, prime
	}
	var h http.Handler = res.srv
	if wrap != nil {
		h = wrap(h)
	}
	h = c.track(h)

	res.hitBefore = res.srv.CacheHitRatio()
	runtime.GC()
	res.replies = make([]reply, len(p.ops))
	res.raw = make([]float64, len(p.ops))
	gc0 := readGC()
	res.phases.timedStart = time.Now()
	cpu0 := cpuTime()
	c.sample(0)
	for i, o := range p.ops {
		code, body, d := serve(h, o)
		if len(res.prime) > 0 && bytes.Equal(body, res.prime[o.ref].body) {
			// feasibility-hot sends hundreds of thousands of requests:
			// keep its bodies as references to the primed ones instead
			// of retaining a copy each (the check still compares bytes).
			body = res.prime[o.ref].body
		}
		res.replies[i] = reply{code, body}
		res.raw[i] = float64(d)
		if afterOp != nil {
			afterOp(i, o, res.replies[i], d)
		}
		c.tick(i+1, d)
	}
	for i := 0; i <= refWindow; i++ {
		c.sample(len(p.ops))
	}
	res.cpu = cpuTime() - cpu0 - c.spent
	res.phases.timedEnd = time.Now()
	gc1 := readGC()
	res.peakRSS = peakRSS()
	res.gcCycles, res.gcBytes = gc1[0]-gc0[0], gc1[1]-gc0[1]
	res.hitAfter = res.srv.CacheHitRatio()
	res.samples = c.samples
	res.maxOps = c.maxInFly
	f := scales(c.samples, len(p.ops))
	res.scaled = make([]float64, len(p.ops))
	for i := range res.raw {
		res.scaled[i] = res.raw[i] * f[i]
	}
	return res
}

// track counts the ops inside the handler, so a test can assert the load
// is one closed-loop client with one op in flight.
func (c *clock) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := c.inFlight.Add(1); n > c.maxInFly {
			c.maxInFly = n
		}
		h.ServeHTTP(w, r)
		c.inFlight.Add(-1)
	})
}

// setUp builds a fresh server and sends it the plan's priming and warm-up
// ops, sampling the kernel between them as the timed phase does, and
// returns the server, its replies and the set-up time in seconds, scaled
// call by call: set-up spans a few hundred milliseconds at most, and host
// speed changes within that.
func setUp(p *plan, k *refKernel) (srv *server.Server, prime, warm []reply, secs float64) {
	c := &clock{k: k}
	c.sample(0)
	start := time.Now()
	srv = server.New(server.Options{LogWriter: io.Discard})
	ds := []float64{float64(time.Since(start))}
	send := func(ops []op) []reply {
		out := make([]reply, len(ops))
		for i, o := range ops {
			code, body, d := serve(srv, o)
			out[i] = reply{code, body}
			ds = append(ds, float64(d))
			c.tick(len(ds), d)
		}
		return out
	}
	prime, warm = send(p.prime), send(p.warm)
	for i := 0; i <= refWindow; i++ {
		c.sample(len(ds))
	}
	for i, f := range scales(c.samples, len(ds)) {
		secs += ds[i] * f / 1e9
	}
	return srv, prime, warm, secs
}

// endToEnd reduces a pass to the end-to-end metrics.
func (r *runResult) endToEnd() []metric {
	var sum float64
	for _, v := range r.scaled {
		sum += v
	}
	n := float64(len(r.scaled))
	hostScale := sum / sumOf(r.raw)
	return []metric{
		{"ops_per_s", n / (sum / 1e9), "1/s"},
		{"latency_p50_ms", quantile(r.scaled, 0.50) / 1e6, "ms"},
		{"latency_p99_ms", quantile(r.scaled, 0.99) / 1e6, "ms"},
		{"cpu_ms_per_op", float64(r.cpu) * hostScale / n / 1e6, "ms"},
		{"peak_rss_mb", r.peakRSS, "MB"},
		{"setup_s", median(r.setup), "s"},
	}
}

// longestOp is the longest unscaled op time, ns.
func (r *runResult) longestOp() float64 {
	m := 0.0
	for _, d := range r.raw {
		m = max(m, d)
	}
	return m
}

// refMs is the raw median kernel time of the timed phase.
func (r *runResult) refMs() float64 {
	ds := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		ds[i] = s.d
	}
	return float64(medianDuration(ds)) / 1e6
}

// ------------------------------------------------------------ statistics

func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// quantile is the nearest-rank q-quantile of v: the ⌈q·n⌉-th smallest.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(len(s)-1, i))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ----------------------------------------------------------- process state

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads VmHWM in MB (0 where /proc is unavailable).
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

var gcSamples = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}

func readGC() [2]uint64 {
	metrics.Read(gcSamples)
	return [2]uint64{gcSamples[0].Value.Uint64(), gcSamples[1].Value.Uint64()}
}

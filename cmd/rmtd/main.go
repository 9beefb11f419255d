// Command rmtd is the RMT query daemon: a long-lived HTTP/JSON service
// answering feasibility queries (RMT-cut / 𝒵-pp-cut verdicts) and executing
// any registered protocol × engine × schedule × seed, with canonical-instance
// result caching and bounded-queue backpressure (see internal/server).
//
// Usage:
//
//	rmtd -addr :8080 -workers 0 -queue 256 -cache 1024 -timeout 30s
//
// Endpoints:
//
//	POST /v1/feasibility   {"graph":"0-1 ...","structure":"1;2","dealer":0,"receiver":4}
//	POST /v1/run           the above plus protocol/engine/schedule/seed/trials/...
//	POST /v1/watch         ndjson: the above's instance line, then one delta per
//	                       line; streams the verdict changes back
//	GET  /v1/protocols     registered protocols, engines, schedules, attacks
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text format
//
// Fleet mode shards the cache horizontally (see internal/server): a router
// forwards each query to the shard owning its canonical instance key, and
// each watch subscription to the next shard in turn, and shards consult the
// owning peer's cache before computing:
//
//	rmtd -addr :8081 -self http://h:8081 -peers http://h:8081,http://h:8082
//	rmtd -addr :8082 -self http://h:8082 -peers http://h:8081,http://h:8082
//	rmtd -addr :8080 -router -shards http://h:8081,http://h:8082
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests finish (bounded by -drain), then admitted computations drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rmt/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rmtd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled or the listener
// fails. onReady, when non-nil, receives the bound address once the daemon
// accepts connections (used by tests binding port 0).
func run(ctx context.Context, args []string, logw io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("rmtd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 0, "compute workers (0 = one per logical CPU)")
		queue   = fs.Int("queue", 256, "max queued requests before shedding with 429")
		cache   = fs.Int("cache", 1024, "entries of each cache: results, and the instances /v1/run built")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request compute deadline")
		drain   = fs.Duration("drain", 10*time.Second, "graceful shutdown bound")
		quiet   = fs.Bool("quiet", false, "suppress the request log")
		router  = fs.Bool("router", false, "run as the fleet router instead of a query shard")
		shards  = fs.String("shards", "", "router mode: comma-separated shard base URLs")
		peers   = fs.String("peers", "", "shard mode: comma-separated base URLs of every fleet shard (incl. this one)")
		self    = fs.String("self", "", "shard mode: this shard's own base URL (must appear in -peers)")
	)
	fs.SetOutput(logw)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reqLog := logw
	if *quiet {
		reqLog = io.Discard
	}

	var handler http.Handler
	var closeFn func()
	role := "rmtd"
	switch {
	case *router:
		if *peers != "" || *self != "" {
			return fmt.Errorf("-peers/-self are shard flags; a -router forwards, it does not serve queries")
		}
		rt, err := server.NewRouter(server.RouterOptions{
			Shards:    splitURLs(*shards),
			LogWriter: reqLog,
		})
		if err != nil {
			return err
		}
		handler, closeFn, role = rt, func() {}, "rmtd-router"
	default:
		if *shards != "" {
			return fmt.Errorf("-shards requires -router")
		}
		peerList := splitURLs(*peers)
		if len(peerList) > 0 && !contains(peerList, *self) {
			return fmt.Errorf("-self %q must be one of -peers %v", *self, peerList)
		}
		srv := server.New(server.Options{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheSize:      *cache,
			RequestTimeout: *timeout,
			LogWriter:      reqLog,
			Peers:          peerList,
			Self:           *self,
		})
		handler, closeFn = srv, srv.Close
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeFn()
		return err
	}
	httpServer := newHTTPServer(handler)
	fmt.Fprintf(logw, "%s: listening on %s\n", role, ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	select {
	case err := <-serveErr:
		closeFn()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(logw, "%s: draining (up to %v)\n", role, *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		closeFn()
		return err
	}
	closeFn()
	fmt.Fprintf(logw, "%s: stopped\n", role)
	return nil
}

// A client gets readHeaderTimeout to send a request's header, and an idle
// connection is closed after idleTimeout. No read or write timeout bounds
// a whole request: a watch stream is open as long as its client watches.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the http.Server of either role.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// splitURLs parses a comma-separated URL list, trimming blanks.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonServesAndDrains boots the daemon on an ephemeral port, exercises
// a cached round trip, then cancels the context and checks the graceful
// drain completes.
func TestDaemonServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, io.Discard,
			func(addr string) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/feasibility", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feasibility request %d: %d", i, resp.StatusCode)
		}
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "rmtd_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestHTTPServerTimeouts: both roles drop a client that sends no header
// and an idle connection, and put no bound on a whole request or reply,
// which would cut open watch streams.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s and 2m", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; want none", hs.ReadTimeout, hs.WriteTimeout)
	}
}

func TestBadFlagsError(t *testing.T) {
	err := run(context.Background(), []string{"-addr"}, io.Discard, nil)
	if err == nil {
		t.Fatal("missing flag value should error")
	}
}

func TestFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-router"},                       // router without shards
		{"-router", "-peers", "http://a"}, // router with shard flags
		{"-shards", "http://a"},           // shards without -router
		{"-peers", "http://a,http://b", "-self", "http://c"}, // self not in peers
	}
	for i, args := range cases {
		if err := run(context.Background(), args, io.Discard, nil); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

// TestRouterModeBoots starts one shard and one router as the rmtd binary
// would, and drives a query through the router to its shard.
func TestRouterModeBoots(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	boot := func(args []string) (string, chan error) {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, append(args, "-addr", "127.0.0.1:0", "-quiet"), io.Discard,
				func(addr string) { ready <- addr })
		}()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return "", nil
	}

	shardURL, shardDone := boot(nil)
	routerURL, routerDone := boot([]string{"-router", "-shards", shardURL})

	body := `{"graph":"0-1 1-2","structure":"1","dealer":0,"receiver":2}`
	resp, err := http.Post(routerURL+"/v1/feasibility", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("via router: %d", resp.StatusCode)
	}

	cancel()
	for _, done := range []chan error{shardDone, routerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}
}

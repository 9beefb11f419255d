package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rmt/internal/adversary"
)

// ------------------------------------------------------------------- ring

func TestRingIsDeterministicAcrossShardOrder(t *testing.T) {
	a := newHashRing([]string{"http://a", "http://b", "http://c"})
	b := newHashRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("owner(%q) depends on shard list order: %q vs %q", key, a.owner(key), b.owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	shards := []string{"http://a", "http://b", "http://c"}
	r := newHashRing(shards)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, s := range shards {
		if counts[s] == 0 {
			t.Fatalf("shard %s owns nothing: %v", s, counts)
		}
	}
}

func TestRingRoutesCanonicalSpellingsTogether(t *testing.T) {
	// Two spellings of the same instance tuple — permuted edge list, explicit
	// vs defaulted knowledge — must share a canonical key and hence an owner.
	specs := []InstanceRequest{
		{Graph: "0-1 0-2 1-3 2-3", Structure: "1;2", Dealer: 0, Receiver: 3},
		{Graph: "2-3 1-3 0-2 0-1", Structure: "2;1", Knowledge: "adhoc", Dealer: 0, Receiver: 3},
	}
	r := newHashRing([]string{"http://a", "http://b", "http://c"})
	var owners []string
	for _, q := range specs {
		in, _, err := q.build()
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, r.owner(in.CanonicalKey()))
	}
	if owners[0] != owners[1] {
		t.Fatalf("same instance, different owners: %v", owners)
	}
}

// ------------------------------------------------------ shard cache protocol

func TestInternalCacheEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	var q InstanceRequest
	if err := json.Unmarshal([]byte(solvableButterfly), &q); err != nil {
		t.Fatal(err)
	}
	spec, err := q.spec()
	if err != nil {
		t.Fatal(err)
	}
	key := feasibilityKey(spec, 0, adversary.Trivial())

	// A miss answers 404 and must not trigger any compute.
	code, _ := post(t, ts, "/internal/cache", key)
	if code != http.StatusNotFound {
		t.Fatalf("uncached key: %d, want 404", code)
	}

	code, want := post(t, ts, "/v1/feasibility", solvableButterfly)
	if code != http.StatusOK {
		t.Fatalf("feasibility: %d %s", code, want)
	}
	code, got := post(t, ts, "/internal/cache", key)
	if code != http.StatusOK {
		t.Fatalf("cached key: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer protocol body differs from the client body:\n%s\nvs\n%s", got, want)
	}
}

// ------------------------------------------------------------------- fleet

// newFleet boots n shards (each knowing all peers) plus a router, all on
// ephemeral ports. The shard listeners are bound before the servers are
// built so every shard knows the full peer URL list up front.
func newFleet(t *testing.T, n int) (shards []*Server, urls []string, rt *Router) {
	t.Helper()
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i, ln := range listeners {
		s := New(Options{LogWriter: io.Discard, Peers: urls, Self: urls[i]})
		hs := &http.Server{Handler: s}
		go hs.Serve(ln)
		t.Cleanup(func() {
			hs.Close()
			s.Close()
		})
		shards = append(shards, s)
	}
	rt, err := NewRouter(RouterOptions{Shards: urls, LogWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return shards, urls, rt
}

// fleetWorkload is a handful of distinct instances, enough for the ring to
// involve more than one shard.
var fleetWorkload = []string{
	solvableButterfly,
	`{"graph":"0-1 1-2","structure":"1","dealer":0,"receiver":2}`,
	`{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3}`,
	`{"graph":"0-1 0-2 1-3 2-3","structure":"1,2","dealer":0,"receiver":3}`,
	`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1,2;3","dealer":0,"receiver":4}`,
	`{"graph":"0-1 1-2 2-3 3-4","structure":"2","dealer":0,"receiver":4}`,
}

func TestRouterForwardsByCanonicalKey(t *testing.T) {
	_, urls, rt := newFleet(t, 3)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// The shards listen on random ports, so which shard owns which
	// instance varies from run to run; the forward counts must match what
	// the ring predicts for this run's URLs. TestRingSpreadsKeys pins the
	// spread itself on fixed URLs.
	ring := newHashRing(urls)
	want := map[string]int64{}
	for _, url := range urls {
		want[url] = 0
	}
	for _, body := range fleetWorkload {
		var q InstanceRequest
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		in, _, err := q.build()
		if err != nil {
			t.Fatal(err)
		}
		want[ring.owner(in.CanonicalKey())]++
		code, resp := post(t, ts, "/v1/feasibility", body)
		if code != http.StatusOK {
			t.Fatalf("via router: %d %s", code, resp)
		}
	}
	if got := rt.Forwards(); !reflect.DeepEqual(got, want) {
		t.Fatalf("forwards per shard %v, ring predicts %v", got, want)
	}

	// Same instance, different spelling → same shard: total forwards grow by
	// exactly one on the shard that already owns the butterfly.
	before := rt.Forwards()
	respelled := `{"graph":"3-4 2-4 1-4 0-3 0-2 0-1","structure":"3;2;1","knowledge":"adhoc","dealer":0,"receiver":4}`
	if code, resp := post(t, ts, "/v1/feasibility", respelled); code != http.StatusOK {
		t.Fatalf("respelled: %d %s", code, resp)
	}
	after := rt.Forwards()
	for shard, n := range after {
		if n != before[shard] && n != before[shard]+1 {
			t.Fatalf("respelled instance moved shards: before %v after %v", before, after)
		}
	}
}

func TestRouterRejectsBadBodies(t *testing.T) {
	_, _, rt := newFleet(t, 2)
	ts := httptest.NewServer(rt)
	defer ts.Close()
	for _, body := range []string{"{", `{"graph":""}`, `{"graph":"0-1","receiver":9}`} {
		if code, _ := post(t, ts, "/v1/feasibility", body); code != http.StatusBadRequest {
			t.Errorf("body %q: %d, want 400", body, code)
		}
	}
	if rt.badRequests.Load() != 3 {
		t.Fatalf("badRequests = %d, want 3", rt.badRequests.Load())
	}
}

func TestRouterServesInventoryAndHealth(t *testing.T) {
	_, _, rt := newFleet(t, 2)
	ts := httptest.NewServer(rt)
	defer ts.Close()
	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte("router")) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get(t, ts, "/v1/protocols"); code != http.StatusOK || !bytes.Contains(body, []byte("lockstep")) {
		t.Fatalf("protocols: %d %s", code, body)
	}
	if code, body := get(t, ts, "/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("rmtd_router_forwards_total")) {
		t.Fatalf("metrics: %d %s", code, body)
	}
}

func TestShardsFetchFromOwningPeer(t *testing.T) {
	shards, urls, rt := newFleet(t, 3)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// Prime the fleet through the router: each instance is cached on exactly
	// its owning shard.
	want := map[string][]byte{}
	for _, body := range fleetWorkload {
		code, resp := post(t, ts, "/v1/run", runBody(body))
		if code != http.StatusOK {
			t.Fatalf("prime: %d %s", code, resp)
		}
		want[body] = resp
	}

	// Now hit every shard directly with every instance. Non-owners miss
	// locally, fetch the owner's bytes, and serve them verbatim.
	client := &http.Client{}
	for _, url := range urls {
		for _, body := range fleetWorkload {
			resp, err := client.Post(url+"/v1/run", "application/json", strings.NewReader(runBody(body)))
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("direct %s: %d %s", url, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want[body]) {
				t.Fatalf("shard %s served different bytes than the fleet:\n%s\nvs\n%s", url, got, want[body])
			}
		}
	}
	var peerHits int64
	for _, s := range shards {
		peerHits += s.PeerCacheHits()
	}
	if peerHits == 0 {
		t.Fatal("no shard served a body out of a peer's cache")
	}
}

func TestShardComputesWhenOwnerHasNoEntry(t *testing.T) {
	shards, urls, _ := newFleet(t, 3)
	// A cold fleet: ask a shard that does NOT own this instance. The peer
	// answers 404 and the shard must compute locally.
	var q InstanceRequest
	if err := json.Unmarshal([]byte(solvableButterfly), &q); err != nil {
		t.Fatal(err)
	}
	in, _, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	ring := newHashRing(urls)
	owner := ring.owner(in.CanonicalKey())
	var nonOwner int
	for i, url := range urls {
		if url != owner {
			nonOwner = i
			break
		}
	}
	client := &http.Client{}
	resp, err := client.Post(urls[nonOwner]+"/v1/feasibility", "application/json", strings.NewReader(solvableButterfly))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold non-owner: %d %s", resp.StatusCode, body)
	}
	if got := shards[nonOwner].metrics.peerMisses.Load(); got == 0 {
		t.Fatal("non-owner never asked the owning peer")
	}
	if shards[nonOwner].PeerCacheHits() != 0 {
		t.Fatal("cold fleet cannot produce a peer hit")
	}
}

// runBody upgrades a feasibility body into a deterministic run request so
// the peer-fetch test exercises the /v1/run cache too.
func runBody(instanceJSON string) string {
	return strings.TrimSuffix(instanceJSON, "}") + `,"protocol":"zcpa","trials":2}`
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b := new(bytes.Buffer)
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

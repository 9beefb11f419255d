package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/protocol"
)

// The recorded-body file pins the bytes rmtd serves: the SHA-256 of every
// /v1/feasibility body over a matrix of fixtures and seeded draws, of every
// /v1/watch stream over seeded delta chains, and of one /v1/run body per
// registered protocol. Every other server test decodes a body and checks
// fields, so a refactor of the handlers could change a witness, a field's
// spelling or an event's presence unnoticed. Regenerate only after an
// intentional change to a response body (it changes what clients and
// peers' caches hold):
//
//	go test ./internal/server/ -run TestPinnedBodies -update
var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned-bodies.txt")

const pinnedBodiesFile = "testdata/pinned-bodies.txt"

// pinnedDraws is the number of seeded random instances beside the
// feasibility fixtures.
const pinnedDraws = 60

type pinnedInstance struct {
	name string
	req  InstanceRequest
}

// pinnedInstances returns every feasibility fixture and pinnedDraws seeded
// gen.RandomInstance draws, as requests without a knowledge level. One draw
// in six is a complete graph, so MBRB verdicts appear.
func pinnedInstances(t *testing.T) []pinnedInstance {
	t.Helper()
	var out []pinnedInstance
	for _, f := range feasibility.All() {
		out = append(out, pinnedInstance{f.Name, InstanceRequest{
			Graph: f.Edges, Structure: cliutil.FormatStructure(f.Z), Dealer: f.Dealer, Receiver: f.Receiver,
		}})
	}
	for i := 0; i < pinnedDraws; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		n, p := 4+r.Intn(6), 0.3+0.5*r.Float64()
		if i%6 == 0 {
			p = 1
		}
		in, err := gen.RandomInstance(r, n, p, 1+r.Intn(3), 0.2+0.4*r.Float64(), gen.AdHoc)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		out = append(out, pinnedInstance{fmt.Sprintf("draw%02d", i), InstanceRequest{
			Graph: cliutil.FormatEdgeList(in.G), Structure: cliutil.FormatStructure(in.Z), Dealer: in.Dealer, Receiver: in.Receiver,
		}})
	}
	return out
}

// serve sends one request straight to the handler and returns the body,
// failing on any status but 200.
func serve(t *testing.T, h http.Handler, path, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pinnedBodies computes the recorded corpus as "label sha256" lines. Each
// endpoint gets its own server, and the requests go one at a time in a
// fixed order, so cache state is the same on every run.
func pinnedBodies(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(label string, body []byte) {
		sum := sha256.Sum256(body)
		lines = append(lines, label+" "+hex.EncodeToString(sum[:]))
	}
	newServer := func() *Server {
		srv := New(Options{LogWriter: io.Discard})
		t.Cleanup(srv.Close)
		return srv
	}
	instances := pinnedInstances(t)

	srv := newServer()
	for _, pi := range instances {
		for _, level := range gen.Levels() {
			for _, d := range []int{0, 1} {
				for _, listen := range []string{"", "1", "1;2"} {
					req := FeasibilityRequest{InstanceRequest: pi.req, MABudget: d, Listen: listen}
					req.Knowledge = level.String()
					add(fmt.Sprintf("feasibility/%s/%s/d=%d/listen=%s", pi.name, level, d, listen),
						serve(t, srv, "/v1/feasibility", mustJSON(t, req)))
				}
			}
		}
	}

	srv = newServer()
	for i, pi := range instances {
		for _, level := range []gen.Knowledge{gen.AdHoc, gen.Radius2, gen.FullKnowledge} {
			q := pi.req
			q.Knowledge = level.String()
			in, _, err := q.build()
			if err != nil {
				t.Fatalf("%s/%s: %v", pi.name, level, err)
			}
			for c := 0; c < 4; c++ {
				deltas, err := gen.RandomDeltaChain(in, level, 8, int64(4*i+c))
				if err != nil {
					t.Fatalf("%s/%s chain %d: %v", pi.name, level, c, err)
				}
				body := []string{mustJSON(t, q)}
				for _, d := range deltas {
					body = append(body, mustJSON(t, d))
				}
				add(fmt.Sprintf("watch/%s/%s/chain%d", pi.name, level, c),
					serve(t, srv, "/v1/watch", strings.Join(body, "\n")+"\n"))
			}
		}
	}

	srv = newServer()
	for _, name := range protocol.Names() {
		p, _ := protocol.Get(name)
		add("run/"+name, serve(t, srv, "/v1/run", mustJSON(t, runFixture(t, name, p.Caps()))))
	}
	return lines
}

// runFixture is a /v1/run request for protocol name on a fixture its
// capabilities accept, with the transcript embedded.
func runFixture(t *testing.T, name string, caps protocol.Caps) RunRequest {
	t.Helper()
	fx, _ := feasibility.ByName(feasibility.TriplePath)
	q := InstanceRequest{Graph: fx.Edges, Structure: cliutil.FormatStructure(fx.Z), Dealer: fx.Dealer, Receiver: fx.Receiver}
	switch {
	case caps.CompleteGraph:
		in, err := feasibility.MBRBBoundaries()[0].Feasible()
		if err != nil {
			t.Fatal(err)
		}
		q = InstanceRequest{Graph: cliutil.FormatEdgeList(in.G), Structure: cliutil.FormatStructure(in.Z), Dealer: in.Dealer, Receiver: in.Receiver}
	case caps.HonestPaths:
		q.Structure = "1" // relays 2 and 3 stay honest
	case caps.NeedsFullKnowledge:
		q.Knowledge = "full"
	}
	return RunRequest{InstanceRequest: q, Protocol: name, Seed: 7, Transcript: true}
}

// TestPinnedBodies: every recorded body digest must be reproduced exactly.
func TestPinnedBodies(t *testing.T) {
	got := pinnedBodies(t)
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(pinnedBodiesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedBodiesFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedBodiesFile)
	if err != nil {
		t.Fatalf("missing recorded bodies (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d bodies, the recorded file %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("body changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d recorded bodies changed", bad, len(want))
	}
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
)

// FuzzRunRequest posts each input as a /v1/run body to one in-process
// server: every answer must be 200 or 400 with a JSON body. A rejection is
// the client's mistake, never a 500 or a dropped connection. To bound the
// cost of one input, a body that decodes as the handler decodes it has
// trials clamped to 2 and max_rounds to 64, and graphs of more than 8
// nodes are skipped.
func FuzzRunRequest(f *testing.F) {
	const (
		triple  = `"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4`
		diamond = `"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3`
		k5      = `"graph":"0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4","structure":"1;2;3","dealer":0,"receiver":4`
	)
	for _, seed := range []string{
		// One valid request per protocol.
		`{` + triple + `,"protocol":"pka","corrupt":[2],"attack":"value-flip"}`,
		`{` + triple + `,"protocol":"zcpa","engine":"async","schedule":"lifo","seed":3,"trials":2}`,
		`{` + triple + `,"protocol":"ppa","knowledge":"full","transcript":true}`,
		`{` + triple + `,"protocol":"broadcast","engine":"goroutine","corrupt":[1]}`,
		`{` + k5 + `,"protocol":"mbrb","corrupt":[3],"attack":"equivocator"}`,
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2","dealer":0,"receiver":4,"protocol":"smt","value":"secret"}`,
		// Capability rejections: mbrb on a sparse graph, smt with every
		// path corruptible, PPA without full knowledge.
		`{` + triple + `,"protocol":"mbrb"}`,
		`{"graph":"0-1 0-2 1-3 2-3","structure":"1,2","dealer":0,"receiver":3,"protocol":"smt"}`,
		`{` + diamond + `,"protocol":"ppa"}`,
		// A non-node corrupt ID, an inadmissible corrupt set, an unknown
		// attack.
		`{` + diamond + `,"corrupt":[-1]}`,
		`{` + diamond + `,"corrupt":[1,2]}`,
		`{` + diamond + `,"attack":"nope"}`,
		// Data after the document: bytes, then a second document.
		`{` + triple + `}garbage`,
		`{` + triple + `} {"x":1}`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Options{LogWriter: io.Discard})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if decodeOne(bytes.NewReader(body), &req) == nil {
			if g, err := graph.ParseEdgeList(req.Graph); err == nil && g.NumNodes() > 8 {
				t.Skip("more than 8 nodes")
			}
			req.Trials, req.MaxRounds = min(req.Trials, 2), min(req.MaxRounds, 64)
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for %s: body is not JSON: %q", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// FuzzWatchStream posts each input as a whole /v1/watch body to one
// in-process server. Every answer must be a 400 with a JSON body, or a 200
// whose lines are WatchEvents — rev 0 first, revs increasing — optionally
// ended by one {"error","rev"} line. The test replays the body's deltas
// the way the handler reads them, so each event must also carry its
// revision's key and knowledge level, a witness exactly when unsolvable,
// witnesses that name nodes of its revision, and at ad hoc a zcpa verdict
// equal to its pka verdict. To bound the cost of one input, a base graph
// of more than 10 nodes is skipped, a subscription takes at most 16
// deltas and each revision's check at most 200 ms.
func FuzzWatchStream(f *testing.F) {
	for _, seed := range []string{
		// The butterfly's scripted history, at ad hoc and full knowledge.
		watchBody(solvableButterfly, watchDeltas...),
		watchBody(`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","knowledge":"full","dealer":0,"receiver":4}`, `{"remove_nodes":[3]}`),
		watchBody(`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2;3","knowledge":"radius1","dealer":0,"receiver":4}`, watchDeltas...),
		// Bad subscriptions: no instance line, bad JSON, an unknown field,
		// a receiver that is not a node, a delta that does not apply, a
		// delta that does not decode, and a blank line between deltas.
		"",
		"{\n",
		`{"graph":"0-1","dealer":0,"receiver":1,"bogus":1}` + "\n",
		`{"graph":"0-1","dealer":0,"receiver":9}` + "\n",
		watchBody(solvableButterfly, `{"remove_edges":[[1,3]]}`),
		watchBody(solvableButterfly, `{"remove_nodes":[4]}`, `{"add_edges":[[1,1]]}`),
		watchBody(solvableButterfly, `{"add_edges":[[1,-2]]}`),
		watchBody(solvableButterfly, `{"add_nodes":"x"}`),
		watchBody(solvableButterfly, `{"remove_nodes":[3]}`, "", `{"add_nodes":[3],"add_edges":[[0,3],[3,4]]}`),
		// Data after a line's document: after the instance, and a second
		// delta on one line.
		solvableButterfly + "garbage\n",
		solvableButterfly + ` {"x":1}` + "\n",
		watchBody(solvableButterfly, `{"add_edges":[[1,4]]} {"remove_nodes":[2]}`),
	} {
		f.Add([]byte(seed))
	}
	const maxDeltas = 16
	srv := New(Options{LogWriter: io.Discard, MaxWatchDeltas: maxDeltas, RequestTimeout: 200 * time.Millisecond})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		level, revs, keys := replayWatch(t, body, maxDeltas)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/watch", bytes.NewReader(body)))
		reply := rec.Body.Bytes()
		switch {
		case rec.Code == http.StatusBadRequest && len(revs) == 0:
			if !json.Valid(reply) {
				t.Fatalf("400 body is not JSON: %q", reply)
			}
			return
		case rec.Code != http.StatusOK || len(revs) == 0:
			t.Fatalf("status %d for %q (base builds: %v): %s", rec.Code, body, len(revs) > 0, reply)
		}
		lines := bytes.Split(bytes.TrimSuffix(reply, []byte("\n")), []byte("\n"))
		last := -1
		for i, line := range lines {
			if bytes.Contains(line, []byte(`"error":`)) {
				var we watchError
				if err := decodeLine(line, &we); err != nil || i != len(lines)-1 || we.Rev <= last || last < 0 && we.Rev != 0 {
					t.Fatalf("line %d %s: not a terminal error after rev %d (%v)", i, line, last, err)
				}
				continue
			}
			var ev WatchEvent
			if err := decodeLine(line, &ev); err != nil {
				t.Fatalf("line %d %s: %v", i, line, err)
			}
			if ev.Rev <= last || i == 0 && ev.Rev != 0 || ev.Rev >= len(revs) {
				t.Fatalf("line %d is rev %d after rev %d; %d revisions replay", i, ev.Rev, last, len(revs))
			}
			last = ev.Rev
			if ev.Key != keys[ev.Rev] || ev.Knowledge != level.String() {
				t.Fatalf("rev %d: key %s, knowledge %s; want %s, %s", ev.Rev, ev.Key, ev.Knowledge, keys[ev.Rev], level)
			}
			if (level == gen.AdHoc) != (ev.ZCPA != nil) || ev.ZCPA != nil && mustJSON(t, ev.ZCPA) != mustJSON(t, ev.PKA) {
				t.Fatalf("rev %d at %s: zcpa verdict %s, pka %s", ev.Rev, level, mustJSON(t, ev.ZCPA), mustJSON(t, ev.PKA))
			}
			if ev.PKA.Solvable == (ev.PKA.Witness != nil) || !witnessOn(revs[ev.Rev].G, &ev.PKA) {
				t.Fatalf("rev %d: verdict %s on %v", ev.Rev, mustJSON(t, ev.PKA), revs[ev.Rev].G)
			}
		}
	})
}

// replayWatch reads a /v1/watch body the way handleWatch does and returns
// the knowledge level, every revision it reaches (none when the instance
// line is rejected) and their keys. It skips bodies whose base graph has
// more than 10 nodes.
func replayWatch(t *testing.T, body []byte, maxDeltas int) (gen.Knowledge, []*instance.Instance, []string) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	first, err := nextLine(sc)
	if err != nil {
		return 0, nil, nil
	}
	var req InstanceRequest
	if decodeLine(first, &req) != nil {
		return 0, nil, nil
	}
	if g, err := graph.ParseEdgeList(req.Graph); err == nil && g.NumNodes() > 10 {
		t.Skip("more than 10 nodes")
	}
	in, level, err := req.build()
	if err != nil {
		return 0, nil, nil
	}
	revs, keys := []*instance.Instance{in}, []string{in.CanonicalKey()}
	for len(revs) <= maxDeltas {
		line, err := nextLine(sc)
		if err != nil {
			break
		}
		var d instance.Delta
		if decodeLine(line, &d) != nil {
			break
		}
		next, err := gen.ApplyDelta(revs[len(revs)-1], d, level)
		if err != nil {
			break
		}
		revs, keys = append(revs, next), append(keys, instance.ChainKey(keys[len(keys)-1], d))
	}
	return level, revs, keys
}

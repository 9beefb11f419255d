package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rmt/internal/graph"
)

// FuzzRunRequest posts each input as a /v1/run body to one in-process
// server: every answer must be 200 or 400 with a JSON body. A rejection is
// the client's mistake, never a 500 or a dropped connection. To bound the
// cost of one input, a body that decodes has trials clamped to 2 and
// max_rounds to 64, and graphs of more than 8 nodes are skipped.
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
	} {
		f.Add([]byte(seed))
	}
	srv := New(Options{LogWriter: io.Discard})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
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

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// smtInstance leaves relays 2 and 3 honest, so the SMT verdict genuinely
// depends on the listening structure: feasible with no listening, infeasible
// once an ear covers both honest relays.
const smtInstance = `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4}`

// TestFeasibilityCacheKeyCarriesListen is the regression test for the
// cache-poisoning bug the v3 key bump fixes: the v2-era key did not include
// the listening structure, so a cached no-listening body would have been
// served byte-identically for a listening-structure request of the same
// instance — reporting an eavesdroppable pairing as SMT-feasible. Under the
// fixed key, requests differing only in "listen" are distinct entries with
// different verdicts, and a v2-formatted entry planted in the cache is never
// consulted.
func TestFeasibilityCacheKeyCarriesListen(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	// Plant a v2-era body under the exact key the previous daemon version
	// would have used for this instance. If any request below returns this
	// sentinel, the handler consulted a v2-era entry.
	var q InstanceRequest
	if err := json.Unmarshal([]byte(smtInstance), &q); err != nil {
		t.Fatal(err)
	}
	in, level, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte(`{"sentinel":"v2-era cached body"}`)
	v2key := fmt.Sprintf("feasibility-v2\n%s\nd=%d\n%s", level, 0, in.CanonicalKey())
	srv.cache.put(v2key, stale)

	// No listening: SMT-feasible (a share family over the honest relays).
	code, body := post(t, ts, "/v1/feasibility", smtInstance)
	if code != http.StatusOK {
		t.Fatalf("no-listen request: %d %s", code, body)
	}
	var noListen FeasibilityResponse
	if err := json.Unmarshal(body, &noListen); err != nil {
		t.Fatalf("no-listen request returned unparseable (stale?) body %s: %v", body, err)
	}
	if noListen.SMT == nil || !noListen.SMT.Feasible {
		t.Fatalf("no-listen verdict: %+v, want SMT-feasible", noListen.SMT)
	}

	// Same instance, listening structure covering both honest relays: the
	// secrecy cut must flip the verdict — a served v2-era or no-listen body
	// would wrongly say feasible.
	listening := `{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1","dealer":0,"receiver":4,"listen":"2,3"}`
	code, body = post(t, ts, "/v1/feasibility", listening)
	if code != http.StatusOK {
		t.Fatalf("listen request: %d %s", code, body)
	}
	var withListen FeasibilityResponse
	if err := json.Unmarshal(body, &withListen); err != nil {
		t.Fatalf("listen request returned unparseable (stale?) body %s: %v", body, err)
	}
	if withListen.SMT == nil || withListen.SMT.Feasible {
		t.Fatalf("listen verdict: %+v, want SMT-infeasible (cached no-listen body served?)", withListen.SMT)
	}
	if len(withListen.SMT.SecrecyCut) == 0 || len(withListen.SMT.SecrecyListen) == 0 {
		t.Fatalf("listen verdict lacks a secrecy-cut witness: %+v", withListen.SMT)
	}

	// Both requests computed fresh entries; the planted v2 body must still
	// be sitting untouched in the cache, never having been served.
	if got, ok := srv.cache.get(v2key); !ok || string(got) != string(stale) {
		t.Fatal("v2-era entry was evicted or rewritten by the handler")
	}

	// And the listening request is itself cached — repeat and compare.
	code, again := post(t, ts, "/v1/feasibility", listening)
	if code != http.StatusOK || string(again) != string(body) {
		t.Fatalf("listening request not served byte-identically from cache")
	}
}

// TestCacheKeysCoverRequestFields walks FeasibilityRequest and RunRequest
// by reflection, so a field added later cannot be left out of its cache
// key unnoticed — the bug class of the knowledge-level collision and of the
// listen poisoning above. After a base request primes the cache:
//   - a request differing from it in one field outside the instance tuple
//     must miss, and so must a feasibility request at a knowledge level
//     that shares the base's canonical hash;
//   - a re-spelling of one instance field must hit.
//
// Every field needs an entry in the tables below, so a new one fails here
// until it says which kind it is.
func TestCacheKeysCoverRequestFields(t *testing.T) {
	// Triangle-free, so the adhoc and radius1 views coincide.
	base := InstanceRequest{Graph: "0-1 0-2 0-3 1-4 2-4 3-4", Structure: "1;2;3", Dealer: 0, Receiver: 4}
	respell := map[string]any{
		"Graph":     "3-4, 2-4; 1-4 0-3 0-2 1-0",
		"Structure": "3; 2;1;1",
		"Knowledge": "adhoc",
		"Dealer":    nil, // an int has one spelling
		"Receiver":  nil,
	}
	// levelHits says whether radius1 answers from the adhoc entry. A
	// feasibility body echoes the level and carries the ad hoc-only ZCPA
	// verdict; a run depends on the instance tuple alone.
	cases := []struct {
		path      string
		base      any
		vary      map[string]any
		levelHits bool
	}{
		{"/v1/feasibility", FeasibilityRequest{InstanceRequest: base},
			map[string]any{"MABudget": 1, "Listen": "2"}, false},
		{"/v1/run", RunRequest{InstanceRequest: base, Protocol: "pka", Value: "1", Engine: "async",
			Schedule: "sync", Seed: 1, Trials: 1, Corrupt: []int{1}, Attack: "silent", Forged: "x"},
			map[string]any{"Protocol": "zcpa", "Value": "2", "Engine": "lockstep", "Schedule": "random",
				"Seed": int64(2), "Trials": 2, "Corrupt": []int{2}, "Attack": "value-flip", "Forged": "y",
				"MaxRounds": 9, "Transcript": true}, true},
	}
	for _, c := range cases {
		srv, ts := newTestServer(t, Options{})
		// expect posts req and checks that it moved the hit or the miss
		// counter.
		expect := func(label string, req any, hit bool) {
			t.Helper()
			hits, misses := srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load()
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if code, reply := post(t, ts, c.path, string(body)); code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", c.path, label, code, reply)
			}
			gotHit := srv.metrics.cacheHits.Load() == hits+1
			if gotHit != hit || srv.metrics.cacheMisses.Load() != misses+boolInt(!hit) {
				t.Errorf("%s %s: cache hit %v, want %v", c.path, label, gotHit, hit)
			}
		}
		expect("base", c.base, false)
		with := func(field string, value any) any {
			v := reflect.New(reflect.TypeOf(c.base)).Elem()
			v.Set(reflect.ValueOf(c.base))
			v.FieldByName(field).Set(reflect.ValueOf(value))
			return v.Interface()
		}
		typ := reflect.TypeOf(c.base)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type != reflect.TypeOf(InstanceRequest{}) {
				value, ok := c.vary[f.Name]
				if !ok {
					t.Fatalf("%s: field %s has no variant; say how it reaches the cache key", c.path, f.Name)
				}
				expect(f.Name, with(f.Name, value), false)
				continue
			}
			for j := 0; j < f.Type.NumField(); j++ {
				name := f.Type.Field(j).Name
				value, ok := respell[name]
				if !ok {
					t.Fatalf("%s: instance field %s has no re-spelling; add one or mark it nil", c.path, name)
				}
				if value != nil {
					expect(name+" re-spelled", with(name, value), true)
				}
			}
			expect("knowledge radius1", with("Knowledge", "radius1"), c.levelHits)
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/cutsearch"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/zcpa"
)

// This file keeps the cut-verdict path that served /v1/feasibility and
// /v1/watch before one checker answered both ad hoc verdicts, as the
// reference the served bytes are compared against: one incremental
// checker per definition, each repaired or searched on its own; a watch
// handler that validates every delta before applying it and computes
// every revision with its own checkers; and requests and bodies read and
// written by encoding/json alone.

// refCutCheckers checks Definition 3's RMT-cut (pka) at every knowledge
// level and Definition 7's 𝒵-pp cut (zcpa) on ad hoc instances, each with
// its own checker.
type refCutCheckers struct {
	pka  core.IncrementalCut
	zcpa zcpa.IncrementalCut
}

// verdicts checks in under both conditions; z is nil unless level is ad
// hoc.
func (c *refCutCheckers) verdicts(ctx context.Context, in *instance.Instance, level gen.Knowledge) (pka Verdict, z *Verdict, err error) {
	if pka, err = refCheckCut(ctx, &c.pka, in); err != nil || level != gen.AdHoc {
		return pka, nil, err
	}
	zv, err := refCheckCut(ctx, &c.zcpa, in)
	return pka, &zv, err
}

func refCheckCut[W cutsearch.Cut](ctx context.Context, ic *cutsearch.Incremental[W], in *instance.Instance) (Verdict, error) {
	w, found, err := ic.CheckCtx(ctx, in)
	if err != nil {
		return Verdict{}, err
	}
	if !found {
		return Verdict{Solvable: true}, nil
	}
	c := cutsearch.Witness(w)
	return Verdict{Witness: &CutWitness{C1: members(c.C1), C2: members(c.C2), B: members(c.B)}}, nil
}

// refHandler serves /v1/feasibility and /v1/watch of s through the
// reference path, over s's cache, gate and metrics.
func refHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/feasibility", s.instrument("/v1/feasibility", s.refHandleFeasibility))
	mux.HandleFunc("POST /v1/watch", s.instrument("/v1/watch", s.refHandleWatch))
	return mux
}

func (s *Server) refHandleFeasibility(w http.ResponseWriter, r *http.Request) {
	var req FeasibilityRequest
	if err := decodeOne(io.LimitReader(r.Body, s.opts.MaxBodyBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, "body: %v", err)
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
	key := fmt.Sprintf("feasibility-v3\n%s\nd=%d\nlisten=%s\n%s",
		level, req.MABudget, cliutil.FormatStructure(listen), in.CanonicalKey())
	if s.serveHit(w, key) {
		return
	}
	s.serveMiss(w, r, key, in.CanonicalKey(), func(ctx context.Context) ([]byte, error) {
		resp := FeasibilityResponse{Key: in.CanonicalKey(), Knowledge: level.String()}
		if mv, err := feasibility.MBRBVerdictFor(in, req.MABudget); err == nil {
			resp.MBRB = &mv
		}
		// The parent's SMT verdict polled no context.
		resp.SMT, _ = smtVerdictOf(context.Background(), in, listen)
		var cuts refCutCheckers
		var err error
		if resp.PKA, resp.ZCPA, err = cuts.verdicts(ctx, in, level); err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
}

func (s *Server) refHandleWatch(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), int(s.opts.MaxBodyBytes))
	first, err := nextLine(sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "watch: missing instance line")
		return
	}
	var req InstanceRequest
	if err := decodeOne(bytes.NewReader(first), &req); err != nil {
		writeError(w, http.StatusBadRequest, "instance line: %v", err)
		return
	}
	in, level, err := req.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	key := in.CanonicalKey()
	var cuts refCutCheckers
	cur := in
	var prev *WatchEvent
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		ev := &WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		body, err := s.compute(r.Context(), func(ctx context.Context) ([]byte, error) {
			var err error
			if ev.PKA, ev.ZCPA, err = cuts.verdicts(ctx, cur, level); err != nil {
				return nil, err
			}
			return marshalBody(ev)
		})
		if err != nil {
			s.watchFail(w, rc, rev, "%v", err)
			return
		}
		if prev == nil || refVerdictChanged(prev, ev) {
			if _, err := w.Write(body); err != nil {
				return
			}
			rc.Flush()
			s.metrics.watchEvents.Add(1)
		}
		prev = ev
		line, err := nextLine(sc)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.watchFail(w, rc, rev+1, "read delta: %v", err)
			}
			return
		}
		var d instance.Delta
		if err := decodeOne(bytes.NewReader(line), &d); err != nil {
			s.watchFail(w, rc, rev+1, "delta %d: %v", rev+1, err)
			return
		}
		if err := d.Validate(cur); err != nil {
			s.watchFail(w, rc, rev+1, "delta %d: %v", rev+1, err)
			return
		}
		next, err := gen.ApplyDelta(cur, d, level)
		if err != nil {
			s.watchFail(w, rc, rev+1, "delta %d: %v", rev+1, err)
			return
		}
		cur = next
		key = instance.ChainKey(key, d)
	}
}

// TestServedBytesMatchReference serves one seeded stream from this server
// and from a server on the reference path: /v1/feasibility for every
// feasibility fixture and pinnedDraws seeded draws at all five knowledge
// levels, and /v1/watch chains of 10 seeded deltas at ad hoc, radius 1
// and full knowledge. Each chain is first sent with half its deltas and
// then whole. The feasibility requests also respell every instance
// (respellings), send a triangle-free instance at ad hoc and radius 1,
// whose views coincide, and send bodies with two faults each
// (twoFaultBodies). The stream is sent once to cold servers and again
// through the warm LRU, which holds feasibility bodies only, once with the
// default cache and once with 64 entries, which evicts.
// Every request built from an instance must answer 200 on both servers
// and every two-fault body 400. Every body must equal the reference's,
// and so must both servers' result-cache hit and miss counts after every
// request, since the reference keys the cache by the CanonicalKey of the
// instance it builds first. Every ad hoc zcpa verdict must equal the pka
// one, with a witness that zcpa.VerifyZppCut accepts.
func TestServedBytesMatchReference(t *testing.T) {
	type request struct {
		path, body string
		revs       []*instance.Instance // the instance of each revision
	}
	var stream []request
	feasibilityAt := func(name string, q InstanceRequest) {
		in, _, err := q.build()
		if err != nil {
			t.Fatalf("%s/%q: %v", name, q.Knowledge, err)
		}
		stream = append(stream, request{"/v1/feasibility", mustJSON(t, FeasibilityRequest{InstanceRequest: q}), []*instance.Instance{in}})
	}
	instances := pinnedInstances(t)
	for _, pi := range instances {
		for _, level := range gen.Levels() {
			q := pi.req
			q.Knowledge = level.String()
			feasibilityAt(pi.name, q)
		}
	}
	rs := rand.New(rand.NewSource(33))
	for i, pi := range instances {
		for _, q := range respellings(t, rs, pi.req, gen.Levels()[i%5]) {
			feasibilityAt(pi.name, q)
		}
	}
	triangleFree := InstanceRequest{Graph: "0-1 1-2 2-3 3-4 4-5 5-0 1-4", Structure: "1;5", Dealer: 0, Receiver: 3}
	for _, k := range []string{"adhoc", "radius1", "adhoc", "radius1", ""} {
		q := triangleFree
		q.Knowledge = k
		feasibilityAt("triangle-free", q)
	}
	for _, body := range twoFaultBodies {
		stream = append(stream, request{"/v1/feasibility", body, nil})
	}
	r := rand.New(rand.NewSource(26))
	for _, pi := range instances {
		for _, level := range []gen.Knowledge{gen.AdHoc, gen.Radius1, gen.FullKnowledge} {
			q := pi.req
			q.Knowledge = level.String()
			in, _, err := q.build()
			if err != nil {
				t.Fatalf("%s/%s: %v", pi.name, level, err)
			}
			deltas, err := gen.RandomDeltaChain(in, level, 10, r.Int63())
			if err != nil {
				t.Fatalf("%s/%s: %v", pi.name, level, err)
			}
			revs := []*instance.Instance{in}
			for _, d := range deltas {
				next, err := gen.ApplyDelta(revs[len(revs)-1], d, level)
				if err != nil {
					t.Fatal(err)
				}
				revs = append(revs, next)
			}
			for _, n := range []int{len(deltas) / 2, len(deltas)} {
				stream = append(stream, request{"/v1/watch", watchChainBody(t, in, level, deltas[:n]), revs})
			}
		}
	}

	send := func(h http.Handler, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for _, size := range []int{0, 64} {
		srv := New(Options{LogWriter: io.Discard, CacheSize: size})
		t.Cleanup(srv.Close)
		refSrv := New(Options{LogWriter: io.Discard, CacheSize: size})
		t.Cleanup(refSrv.Close)
		ref := refHandler(refSrv)
		zcpaWitnesses := 0
		for pass, label := range []string{"cold", "warm"} {
			for i, req := range stream {
				code, got := send(srv, req.path, req.body)
				refCode, want := send(ref, req.path, req.body)
				wantCode := http.StatusOK
				if req.revs == nil {
					wantCode = http.StatusBadRequest
				}
				if code != wantCode || refCode != wantCode || !bytes.Equal(got, want) {
					t.Fatalf("cache %d, %s request %d %s:\n%s\nserved %d\n%s\nreference %d\n%s\nwant status %d", size, label, i, req.path, req.body, code, got, refCode, want, wantCode)
				}
				hits, misses := srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load()
				refHits, refMisses := refSrv.metrics.cacheHits.Load(), refSrv.metrics.cacheMisses.Load()
				if hits != refHits || misses != refMisses {
					t.Fatalf("cache %d, %s request %d %s:\n%s\n%d hits and %d misses so far, reference %d and %d", size, label, i, req.path, req.body, hits, misses, refHits, refMisses)
				}
				if pass == 0 && req.revs != nil {
					zcpaWitnesses += checkAdHocVerdicts(t, req.path, got, req.revs)
				}
			}
		}
		if zcpaWitnesses == 0 {
			t.Fatal("the stream holds no ad hoc cut witness")
		}
		t.Logf("cache %d: %d requests per pass, %d hits and %d misses in all, %d ad hoc zcpa witnesses verified",
			size, len(stream), srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load(), zcpaWitnesses)
	}
}

// respellings returns q at level spelled five other ways that name the
// same tuple: its edges shuffled and each written either way round; its
// maximal sets and their members shuffled; the same with a redundant
// set, a proper subset of a maximal set (or a copy of one, when every
// maximal set is a singleton), inserted among them; and q itself with
// knowledge "" and "adhoc", which both read as ad hoc.
func respellings(t *testing.T, r *rand.Rand, q InstanceRequest, level gen.Knowledge) []InstanceRequest {
	t.Helper()
	g, err := graph.ParseEdgeList(q.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	for _, e := range g.Edges() {
		if r.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		fields = append(fields, fmt.Sprintf("%d-%d", e[0], e[1]))
	}
	g.Nodes().ForEach(func(v int) bool {
		if g.Degree(v) == 0 {
			fields = append(fields, strconv.Itoa(v))
		}
		return true
	})
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	edges := q
	edges.Graph, edges.Knowledge = strings.Join(fields, " "), level.String()

	z, err := cliutil.ParseStructure(q.Structure)
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]int
	for _, m := range z.Maximal() {
		if members := m.Members(); len(members) > 0 {
			sets = append(sets, members)
		}
	}
	render := func(sets [][]int) string {
		parts := make([]string, len(sets))
		for i, set := range sets {
			ids := make([]string, len(set))
			for j, v := range r.Perm(len(set)) {
				ids[j] = strconv.Itoa(set[v])
			}
			parts[i] = strings.Join(ids, ",")
		}
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		return strings.Join(parts, ";")
	}
	shuffled := q
	shuffled.Structure, shuffled.Knowledge = render(sets), level.String()
	redundant := q
	redundant.Knowledge = level.String()
	if len(sets) > 0 {
		extra := sets[r.Intn(len(sets))]
		if len(extra) > 1 {
			extra = extra[:len(extra)-1]
		}
		redundant.Structure = render(append(slices.Clone(sets), extra))
	}
	plain, adhoc := q, q
	plain.Knowledge, adhoc.Knowledge = "", "adhoc"
	return []InstanceRequest{edges, shuffled, redundant, plain, adhoc}
}

// twoFaultBodies are feasibility bodies with two faults each, so the
// answer names the one checked first: a dealer that is not a node and a
// negative ma_budget; a structure that holds the receiver and a listen
// that does not parse; a graph that does not parse and a negative
// ma_budget; a dealer equal to the receiver and a listen that does not
// parse.
var twoFaultBodies = []string{
	`{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":9,"receiver":3,"ma_budget":-1}`,
	`{"graph":"0-1 0-2 1-3 2-3","structure":"1;2,3","dealer":0,"receiver":3,"listen":"x;1"}`,
	`{"graph":"0-1 0-x","structure":"1","dealer":0,"receiver":1,"ma_budget":-1}`,
	`{"graph":"0-1 0-2 1-3 2-3","structure":"1","dealer":3,"receiver":3,"listen":"1,,y"}`,
}

// checkAdHocVerdicts requires every ad hoc verdict in a served body to
// carry a zcpa verdict equal to its pka verdict, with a witness that is a
// 𝒵-pp cut of its revision, and returns how many witnesses it verified.
func checkAdHocVerdicts(t *testing.T, path string, body []byte, revs []*instance.Instance) int {
	t.Helper()
	type verdicts struct {
		Rev       int      `json:"rev"`
		Knowledge string   `json:"knowledge"`
		PKA       Verdict  `json:"pka"`
		ZCPA      *Verdict `json:"zcpa"`
	}
	verified := 0
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var v verdicts
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("%s: %s: %v", path, line, err)
		}
		if v.Knowledge != gen.AdHoc.String() {
			continue
		}
		if v.ZCPA == nil || mustJSON(t, v.ZCPA) != mustJSON(t, v.PKA) {
			t.Fatalf("%s: ad hoc zcpa verdict %s differs from pka %s", path, mustJSON(t, v.ZCPA), mustJSON(t, v.PKA))
		}
		if w := v.ZCPA.Witness; w != nil {
			cut := zcpa.ZppCut{C1: nodeset.Of(w.C1...), C2: nodeset.Of(w.C2...), B: nodeset.Of(w.B...)}
			if err := zcpa.VerifyZppCut(revs[v.Rev], cut); err != nil {
				t.Fatalf("%s rev %d: zcpa witness %+v: %v", path, v.Rev, *w, err)
			}
			verified++
		}
	}
	return verified
}

// refVerdictChanged reports whether the solvability verdicts flipped
// between consecutive revisions: the reference's stream events are the
// revisions where it is true. Witness sets are free to differ (repair
// produces different-but-valid cuts).
func refVerdictChanged(prev, next *WatchEvent) bool {
	if prev.PKA.Solvable != next.PKA.Solvable {
		return true
	}
	if (prev.ZCPA == nil) != (next.ZCPA == nil) {
		return true
	}
	return prev.ZCPA != nil && prev.ZCPA.Solvable != next.ZCPA.Solvable
}

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
	"testing"

	"rmt/internal/cliutil"
	"rmt/internal/core"
	"rmt/internal/cutsearch"
	"rmt/internal/feasibility"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/zcpa"
)

// This file keeps the cut-verdict path that served /v1/feasibility and
// /v1/watch before one checker answered both ad hoc verdicts, as the
// reference the served bytes are compared against: one incremental
// checker per definition, each repaired or searched on its own; a watch
// handler that validates every delta before applying it; and a watch
// verdict that decodes every body, the ones it computed included.

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

// seed primes both checkers with the verdicts of a revision served from a
// cache rather than computed.
func (c *refCutCheckers) seed(in *instance.Instance, pka Verdict, z *Verdict) {
	refSeedCut(&c.pka, in, &pka)
	refSeedCut(&c.zcpa, in, z)
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

func refSeedCut[W cutsearch.Cut](ic *cutsearch.Incremental[W], in *instance.Instance, v *Verdict) {
	switch {
	case v == nil:
	case v.Witness != nil:
		w := W(cutsearch.Witness{C1: nodeset.Of(v.Witness.C1...), C2: nodeset.Of(v.Witness.C2...), B: nodeset.Of(v.Witness.B...)})
		if cutsearch.Verify(cutsearch.FromInstance(in, w.Rule()), cutsearch.Witness(w)) == nil {
			ic.Seed(w, true)
		}
	case v.Solvable:
		var none W
		ic.Seed(none, false)
	}
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
	if !s.decode(w, r, &req) {
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
	s.serveCached(w, r, key, in.CanonicalKey(), func(ctx context.Context) ([]byte, error) {
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
	if err := decodeLine(first, &req); err != nil {
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

	base := in.CanonicalKey()
	key := base
	var cuts refCutCheckers
	cur := in
	var prev *WatchEvent
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		ev, body, err := s.refWatchVerdict(r.Context(), &cuts, cur, level, base, key, rev)
		if err != nil {
			s.watchFail(w, rc, rev, "%v", err)
			return
		}
		if prev == nil || verdictChanged(prev, ev) {
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
		if err := decodeLine(line, &d); err != nil {
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

func (s *Server) refWatchVerdict(ctx context.Context, cuts *refCutCheckers, cur *instance.Instance, level gen.Knowledge, base, key string, rev int) (*WatchEvent, []byte, error) {
	valid := func(body []byte) bool {
		ev, err := decodeWatchEvent(body)
		return err == nil && witnessOn(cur.G, &ev.PKA) && witnessOn(cur.G, ev.ZCPA)
	}
	body, source, err := s.cached(ctx, "watch-v1\n"+level.String()+"\n"+key, base, valid, func(ctx context.Context) ([]byte, error) {
		ev := &WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		var err error
		if ev.PKA, ev.ZCPA, err = cuts.verdicts(ctx, cur, level); err != nil {
			return nil, err
		}
		return marshalBody(ev)
	})
	if err != nil {
		return nil, nil, err
	}
	ev, err := decodeWatchEvent(body)
	if err != nil {
		return nil, nil, err
	}
	if source != "miss" {
		cuts.seed(cur, ev.PKA, ev.ZCPA)
	}
	return ev, body, nil
}

// TestServedBytesMatchReference serves one seeded stream from this server
// and from a server on the reference path: /v1/feasibility for every
// feasibility fixture and pinnedDraws seeded draws at all five knowledge
// levels, and /v1/watch chains of 10 seeded deltas at ad hoc, radius 1
// and full knowledge. Each chain is first sent with half its deltas, so
// the full chain that follows is served from the LRU up to that revision,
// seeds its checker from the cached witnesses and computes the rest. The
// stream is sent once to cold servers and again through the warm LRU.
// Every body must be byte-identical to the reference's, and every ad hoc
// zcpa verdict must equal the pka one, with a witness that
// zcpa.VerifyZppCut accepts.
func TestServedBytesMatchReference(t *testing.T) {
	type request struct {
		path, body string
		revs       []*instance.Instance // the instance of each revision
	}
	var stream []request
	instances := pinnedInstances(t)
	for _, pi := range instances {
		for _, level := range gen.Levels() {
			q := pi.req
			q.Knowledge = level.String()
			in, _, err := q.build()
			if err != nil {
				t.Fatalf("%s/%s: %v", pi.name, level, err)
			}
			stream = append(stream, request{"/v1/feasibility", mustJSON(t, FeasibilityRequest{InstanceRequest: q}), []*instance.Instance{in}})
		}
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

	srv := New(Options{LogWriter: io.Discard})
	t.Cleanup(srv.Close)
	refSrv := New(Options{LogWriter: io.Discard})
	t.Cleanup(refSrv.Close)
	ref := refHandler(refSrv)
	zcpaWitnesses := 0
	for pass, label := range []string{"cold", "warm"} {
		for i, req := range stream {
			got := serve(t, srv, req.path, req.body)
			want := serve(t, ref, req.path, req.body)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d %s:\n%s\nserved\n%s\nreference\n%s", label, i, req.path, req.body, got, want)
			}
			if pass == 0 {
				zcpaWitnesses += checkAdHocVerdicts(t, req.path, got, req.revs)
			}
		}
	}
	if zcpaWitnesses == 0 {
		t.Fatal("the stream holds no ad hoc cut witness")
	}
	t.Logf("%d requests per pass, %d ad hoc zcpa witnesses verified", len(stream), zcpaWitnesses)
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

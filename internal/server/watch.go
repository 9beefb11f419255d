package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/instance"
	"rmt/internal/nodeset"
	"rmt/internal/zcpa"
)

// WatchEvent is one line of the POST /v1/watch response stream: the
// feasibility verdicts for one revision of a churning instance.
type WatchEvent struct {
	// Rev is the revision index: 0 is the base instance, k the instance
	// after the k-th delta.
	Rev int `json:"rev"`
	// Key identifies the revision: the instance's canonical hash at rev 0,
	// the order-sensitive delta chain key (instance.ChainKey) afterwards.
	Key       string   `json:"key"`
	Knowledge string   `json:"knowledge"`
	PKA       Verdict  `json:"pka"`
	ZCPA      *Verdict `json:"zcpa,omitempty"`
}

// watchError is the terminal error line of a watch stream: once verdicts
// have been streamed the status code is spent, so errors travel in-band.
type watchError struct {
	Error string `json:"error"`
	Rev   int    `json:"rev"`
}

// handleWatch is POST /v1/watch — the long-lived feasibility subscription:
// the client sends a base instance followed by a stream of topology deltas,
// and the daemon streams back the verdict *changes*. Wire format, one JSON
// document per line (ndjson) in both directions:
//
//	request:  line 1    an InstanceRequest (the base instance)
//	          line 2... one instance.Delta each ({"add_edges": [[0,2]], ...})
//	response: one WatchEvent per verdict change (rev 0 always reports the
//	          base verdict), or a terminal {"error": ...} line
//
// Each revision is answered by the incremental checkers (witness repair
// first, full enumeration only on fallback) and cached in the result LRU
// under the revision's chain key — a domain-separated hash of (previous
// key, delta) that can never equal any base instance's canonical key, so
// chain revisions and base instances never shadow or evict one another. In
// a fleet the whole stream is routed by the *base* key and every revision's
// cache entry lives on the base owner's shard, preserving the peer-cache
// ownership semantics for the chain.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	// Full duplex lets the handler keep reading deltas from the request
	// body after the first verdict line is written — the interactive
	// subscription shape. When the transport can't (pre-1.21 HTTP/1.1),
	// clients that upload their whole delta stream up front still work.
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
	dec := json.NewDecoder(bytes.NewReader(first))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
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
	incR := core.NewIncrementalCut()
	var incZ *zcpa.IncrementalCut
	if level == gen.AdHoc {
		incZ = zcpa.NewIncrementalCut()
	}
	cur := in
	var prev *WatchEvent
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		ev, body, err := s.watchVerdict(r.Context(), cur, level, base, key, rev, incR, incZ)
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
			return // end of subscription
		}
		var d instance.Delta
		ddec := json.NewDecoder(bytes.NewReader(line))
		ddec.DisallowUnknownFields()
		if err := ddec.Decode(&d); err != nil {
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

// watchVerdict produces one revision's verdict event, preferring the local
// LRU, then the base owner's peer cache, then computing on the worker pool
// under the per-step deadline. The returned body is exactly the bytes the
// cache holds (first body wins), so equal chains stream byte-identical
// events fleet-wide. Compute paths advance the incremental checkers as a
// side effect; cache and peer hits re-seed them from the decoded (and
// re-verified) witness so the next revision can still repair.
func (s *Server) watchVerdict(ctx context.Context, cur *instance.Instance, level gen.Knowledge, base, key string, rev int, incR *core.IncrementalCut, incZ *zcpa.IncrementalCut) (*WatchEvent, []byte, error) {
	cacheKey := "watch-v1\n" + level.String() + "\n" + key
	if body, ok := s.cache.get(cacheKey); ok {
		if ev, err := decodeWatchEvent(body); err == nil {
			s.metrics.cacheHits.Add(1)
			seedCheckers(cur, ev, incR, incZ)
			return ev, body, nil
		}
	}
	s.metrics.cacheMisses.Add(1)
	if body, ok := s.fetchFromPeer(ctx, cacheKey, base); ok {
		if ev, err := decodeWatchEvent(body); err == nil {
			s.cache.put(cacheKey, body)
			seedCheckers(cur, ev, incR, incZ)
			return ev, body, nil
		}
	}
	body, err := s.pooled(ctx, func(ctx context.Context) ([]byte, error) {
		ev := &WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		cut, found, err := incR.CheckCtx(ctx, cur)
		if err != nil {
			return nil, err
		}
		if found {
			ev.PKA.Witness = witnessOf(cut.C1, cut.C2, cut.B)
		} else {
			ev.PKA.Solvable = true
		}
		if incZ != nil {
			v := &Verdict{}
			zcut, zfound, err := incZ.CheckCtx(ctx, cur)
			if err != nil {
				return nil, err
			}
			if zfound {
				v.Witness = witnessOf(zcut.C1, zcut.C2, zcut.B)
			} else {
				v.Solvable = true
			}
			ev.ZCPA = v
		}
		return marshalBody(ev)
	})
	if err != nil {
		return nil, nil, err
	}
	s.cache.put(cacheKey, body)
	if cached, ok := s.cache.get(cacheKey); ok {
		body = cached
	}
	ev, err := decodeWatchEvent(body)
	if err != nil {
		return nil, nil, err
	}
	return ev, body, nil
}

// seedCheckers primes the incremental checkers with a revision verdict that
// was served from a cache rather than computed, so the next delta can be
// answered by witness repair. Cached witnesses are re-verified before
// seeding — a body is cache-authentic but the checker contract trusts
// seeds, so the boundary verifies.
func seedCheckers(cur *instance.Instance, ev *WatchEvent, incR *core.IncrementalCut, incZ *zcpa.IncrementalCut) {
	if wv := ev.PKA.Witness; wv != nil {
		cut := core.RMTCut{C1: nodeset.Of(wv.C1...), C2: nodeset.Of(wv.C2...), B: nodeset.Of(wv.B...)}
		if core.VerifyRMTCut(cur, cut) == nil {
			incR.Seed(cut, true)
		}
	} else if ev.PKA.Solvable {
		incR.Seed(core.RMTCut{}, false)
	}
	if incZ == nil || ev.ZCPA == nil {
		return
	}
	if wv := ev.ZCPA.Witness; wv != nil {
		cut := zcpa.ZppCut{C1: nodeset.Of(wv.C1...), C2: nodeset.Of(wv.C2...), B: nodeset.Of(wv.B...)}
		if zcpa.VerifyZppCut(cur, cut) == nil {
			incZ.Seed(cut, true)
		}
	} else if ev.ZCPA.Solvable {
		incZ.Seed(zcpa.ZppCut{}, false)
	}
}

func decodeWatchEvent(body []byte) (*WatchEvent, error) {
	ev := &WatchEvent{}
	if err := json.Unmarshal(body, ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// verdictChanged reports whether the solvability verdicts flipped between
// consecutive revisions. Witness sets are free to differ (repair produces
// different-but-valid cuts); only verdict flips are stream events.
func verdictChanged(prev, next *WatchEvent) bool {
	if prev.PKA.Solvable != next.PKA.Solvable {
		return true
	}
	if (prev.ZCPA == nil) != (next.ZCPA == nil) {
		return true
	}
	return prev.ZCPA != nil && prev.ZCPA.Solvable != next.ZCPA.Solvable
}

// watchFail emits the terminal in-band error line of a watch stream.
func (s *Server) watchFail(w http.ResponseWriter, rc *http.ResponseController, rev int, format string, args ...any) {
	b, err := json.Marshal(watchError{Error: fmt.Sprintf(format, args...), Rev: rev})
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
	rc.Flush()
}

// nextLine returns the next non-blank line of the stream, or io.EOF when
// the client half-closed.
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) > 0 {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

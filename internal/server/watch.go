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
	"rmt/internal/graph"
	"rmt/internal/instance"
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
// Each revision is answered by one incremental checker (witness repair
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

	// The line buffer starts at 4 KiB and grows up to MaxBodyBytes.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, int(s.opts.MaxBodyBytes))

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
	var cut core.IncrementalCut
	cur := in
	var prev *WatchEvent
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		ev, body, err := s.watchVerdict(r.Context(), &cut, cur, level, base, key, rev)
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
		if err := decodeLine(line, &d); err != nil {
			s.watchFail(w, rc, rev+1, "delta %d: %v", rev+1, err)
			return
		}
		// ApplyDelta validates d first and returns Validate's error as is.
		next, err := gen.ApplyDelta(cur, d, level)
		if err != nil {
			s.watchFail(w, rc, rev+1, "delta %d: %v", rev+1, err)
			return
		}
		cur = next
		key = instance.ChainKey(key, d)
	}
}

// decodeLine decodes one ndjson line into v, rejecting unknown fields and
// a second document on the line.
func decodeLine(line []byte, v any) error { return decodeOne(bytes.NewReader(line), v) }

// watchVerdict produces one revision's verdict event through cached, under
// the base owner's key, so equal chains stream byte-identical events
// fleet-wide. A computed revision advances the subscription's checker, and
// its event is used as computed unless another subscription stored its body
// first (see resultCache.put). Any other body is decoded, and a hit or a
// peer's body re-seeds the checker so the next revision can still repair.
func (s *Server) watchVerdict(ctx context.Context, cut *core.IncrementalCut, cur *instance.Instance, level gen.Knowledge, base, key string, rev int) (*WatchEvent, []byte, error) {
	// A peer's body must decode, and its witnesses must name nodes of this
	// revision's graph: it is served as it is, seedCut builds node sets
	// from it, and nodeset.Of panics on a negative ID.
	valid := func(body []byte) bool {
		ev, err := decodeWatchEvent(body)
		return err == nil && witnessOn(cur.G, &ev.PKA) && witnessOn(cur.G, ev.ZCPA)
	}
	var computed *WatchEvent
	var computedBody []byte
	body, source, err := s.cached(ctx, "watch-v1\n"+level.String()+"\n"+key, base, valid, func(ctx context.Context) ([]byte, error) {
		ev := &WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		var err error
		if ev.PKA, ev.ZCPA, err = s.cutVerdicts(ctx, cut, cur, level); err != nil {
			return nil, err
		}
		computed = ev
		computedBody, err = marshalBody(ev)
		return computedBody, err
	})
	if err != nil {
		return nil, nil, err
	}
	if source == "miss" && bytes.Equal(body, computedBody) {
		return computed, body, nil
	}
	ev, err := decodeWatchEvent(body)
	if err != nil {
		return nil, nil, err
	}
	if source != "miss" {
		seedCut(cut, cur, ev.PKA)
	}
	return ev, body, nil
}

// witnessOn reports whether every ID of v's cut witness, if any, is a node
// of g.
func witnessOn(g *graph.Graph, v *Verdict) bool {
	if v == nil || v.Witness == nil {
		return true
	}
	for _, ids := range [][]int{v.Witness.C1, v.Witness.C2, v.Witness.B} {
		for _, id := range ids {
			if !g.HasNode(id) {
				return false
			}
		}
	}
	return true
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

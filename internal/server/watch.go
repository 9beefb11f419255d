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
	"time"

	"rmt/internal/core"
	"rmt/internal/gen"
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
// Each revision is computed by the subscription's own incremental checker
// (witness repair first, the full search only on fallback), through the
// gate under its own deadline, and written as marshalled. No revision is
// cached: its event is a deterministic function of the base instance and
// its delta chain, so equal chains stream byte-identical events on any
// server, and a fleet router may send a subscription to any shard.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	// The line buffer starts at 4 KiB and grows to hold a line of
	// MaxBodyBytes and its newline.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, int(s.opts.MaxBodyBytes)+1)

	first, err := nextLine(sc)
	if errors.Is(err, bufio.ErrTooLong) {
		writeError(w, http.StatusRequestEntityTooLarge, "watch: instance line exceeds the %d-byte limit", s.opts.MaxBodyBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "watch: missing instance line")
		return
	}
	var req InstanceRequest
	if err := decodeBody(first, &req); err != nil {
		writeError(w, http.StatusBadRequest, "instance line: %v", err)
		return
	}
	in, level, err := req.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}

	// Full duplex lets the handler keep reading deltas from the request
	// body after the first verdict line is written — the interactive
	// subscription shape. When the transport can't (pre-1.21 HTTP/1.1),
	// clients that upload their whole delta stream up front still work.
	// It starts with the stream, so a rejected instance line is answered
	// like any early reply.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The connection ends with the stream. A stream can end before its
	// upload does (a bad delta, the delta limit, a 504), and what the
	// client sends after that is no request. net/http ends the response
	// first and then reads what is left of the upload; on a connection
	// kept open, that read reaching the upload's end races the read of
	// the next request ("invalid concurrent Body.Read call").
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusOK)

	key := in.CanonicalKey()
	var cut core.IncrementalCut
	cur := in
	var prev *WatchEvent
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		ev := &WatchEvent{Rev: rev, Key: key, Knowledge: level.String()}
		// Only the first revision and verdict flips are stream events, so
		// only they are marshaled; any other revision computes no body.
		body, err := s.compute(r.Context(), func(ctx context.Context) ([]byte, error) {
			var err error
			if ev.PKA, ev.ZCPA, err = s.cutVerdicts(ctx, &cut, cur, level); err != nil {
				return nil, err
			}
			if prev != nil && !verdictChanged(prev, ev) {
				return nil, nil
			}
			return marshalBody(ev)
		})
		if err != nil {
			s.watchFail(w, rc, rev, "%v", err)
			return
		}
		if body != nil {
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
		if err := decodeBody(line, &d); err != nil {
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

// watchDrainGrace bounds how long net/http goes on reading the upload of a
// stream that ended before it: long enough for what a client that sent its
// whole upload at once has in flight, and no longer, so a client that
// never ends its upload is dropped.
const watchDrainGrace = time.Second

// watchFail emits the terminal in-band error line of a watch stream, which
// ends it before its upload may have ended. Once the handler returns,
// net/http reads what is left of the upload and then closes the
// connection; the read deadline ends that read after watchDrainGrace. A
// deadline of now would reset a connection whose client is still sending
// the rest of its upload, and its transport can report the failed write
// instead of the reply.
func (s *Server) watchFail(w http.ResponseWriter, rc *http.ResponseController, rev int, format string, args ...any) {
	b, _ := json.Marshal(watchError{Error: fmt.Sprintf(format, args...), Rev: rev})
	w.Write(append(b, '\n'))
	rc.Flush()
	rc.SetReadDeadline(time.Now().Add(watchDrainGrace))
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

package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
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
// gate under a deadline of its own, and only the revisions the stream
// writes are rendered. No revision is cached: its event is a
// deterministic function of the base instance and its delta chain, so
// equal chains stream byte-identical events on any server, and a fleet
// router may send a subscription to any shard.
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

	// Revision k's key lives in keys[k%2]: the chain key is read from one
	// buffer and written to the other, and only a written event makes a
	// string of it.
	var keys [2][2 * sha256.Size]byte
	key := append(keys[0][:0], in.CanonicalKey()...)
	deadline := revisionDeadline{parent: r.Context(), timeout: s.opts.RequestTimeout}
	defer deadline.stop()
	var (
		cut   core.IncrementalCut
		cur   = in
		found bool // whether the last revision had a cut
	)
	for rev := 0; ; rev++ {
		if rev > s.opts.MaxWatchDeltas {
			s.watchFail(w, rc, rev, "delta limit %d exceeded", s.opts.MaxWatchDeltas)
			return
		}
		// Only the first revision and verdict flips are stream events, so
		// only they are rendered. At a fixed level a flip is a change of
		// found: the zcpa verdict, present at ad hoc only, is pka's.
		body, err := s.computeIn(r.Context(), deadline.arm(), func(ctx context.Context) ([]byte, error) {
			wit, f, err := s.cutCheck(ctx, &cut, cur)
			if err != nil {
				return nil, err
			}
			flip := rev == 0 || f != found
			found = f
			if !flip {
				return nil, nil
			}
			ev := WatchEvent{Rev: rev, Key: string(key), Knowledge: level.String()}
			ev.PKA, ev.ZCPA = cutVerdicts(wit, f, level)
			return marshalBody(&ev)
		})
		deadline.disarm()
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
		key = instance.AppendChainKey(keys[(rev+1)%2][:0], key, d)
	}
}

// revisionDeadline gives each revision of one subscription its own
// RequestTimeout from one cancel-cause context and one timer, re-armed
// for every revision, where a context.WithTimeout per revision would
// allocate a context, a timer and its registration with the request's
// context each time. A timer that fires after its revision returned
// (disarm lost the race) has canceled, or is about to cancel, that
// revision's context, so the next revision gets a fresh context and
// timer: a late fire never fails a later revision.
type revisionDeadline struct {
	parent  context.Context
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelCauseFunc
	timer   *time.Timer // nil before the first arm and after a fire
}

// arm starts the next revision's deadline and returns its context, which
// ends timeout from now or when the parent does.
func (d *revisionDeadline) arm() context.Context {
	if d.timer != nil {
		d.timer.Reset(d.timeout)
		return d.ctx
	}
	if d.cancel != nil {
		d.cancel(nil)
	}
	ctx, cancel := context.WithCancelCause(d.parent)
	d.ctx, d.cancel = ctx, cancel
	d.timer = time.AfterFunc(d.timeout, func() { cancel(errDeadline) })
	return ctx
}

// disarm stops the running revision's deadline. When the timer has fired
// already, the next arm starts afresh.
func (d *revisionDeadline) disarm() {
	if !d.timer.Stop() {
		d.timer = nil
	}
}

// stop releases the context and its timer when the subscription ends.
func (d *revisionDeadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.cancel != nil {
		d.cancel(nil)
	}
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

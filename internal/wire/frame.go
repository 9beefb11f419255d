// Package wire is the real-socket execution engine: every player of a run
// is a separate OS process (a re-exec of the current binary) speaking
// length-prefixed versioned frames over TCP, driven round-by-round by a
// coordinator in the parent process.
//
// The engine registers itself as "wire" in the network engine registry on
// import. The coordinator reuses the lockstep round loop verbatim by
// substituting a proxy Process per node that round-trips Init/Round calls to
// its child over the socket, so the full Tracer event stream — sends, drops,
// deliveries, decisions, metrics reconciliation — is emitted by the same
// code path as the in-process engines and transcripts agree byte-for-byte
// with the sync schedule.
//
// Processes cannot be serialized, so the child rebuilds the run from the
// pure-data network.Blueprint (instance spec text, protocol name, corruption
// set, attack strategy): every child assembles the same deterministic
// process map and animates only its own node. Payloads cross the socket as
// {kind, data, key, bits} envelopes: the sending child computes the
// canonical key and bit size, the coordinator routes envelopes opaquely, and
// the receiving child decodes them back into real payload values.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"rmt/internal/network"
)

// frameVersion is the codec version; bumped on any incompatible change to
// the frame layout or body schemas. Both sides reject other versions.
const frameVersion = 1

// maxFrameSize bounds one frame's body so a corrupt length prefix cannot
// make a reader allocate unbounded memory.
const maxFrameSize = 16 << 20

// frameType discriminates the frame bodies of the coordinator protocol.
type frameType byte

const (
	// frameHello (child → coordinator) identifies the connecting node.
	frameHello frameType = iota + 1
	// frameSpec (coordinator → child) carries the run Blueprint.
	frameSpec
	// frameReady (child → coordinator) acknowledges the rebuilt run.
	frameReady
	// frameInit (coordinator → child) asks for the node's Init sends.
	frameInit
	// frameRound (coordinator → child) delivers one round's inbox.
	frameRound
	// frameActed (child → coordinator) returns sends, halt and decision
	// state after an Init or Round step.
	frameActed
	// frameBye (coordinator → child) ends the session.
	frameBye
	// frameError (either direction) reports a fatal error and ends the
	// session.
	frameError
)

func (t frameType) String() string {
	switch t {
	case frameHello:
		return "hello"
	case frameSpec:
		return "spec"
	case frameReady:
		return "ready"
	case frameInit:
		return "init"
	case frameRound:
		return "round"
	case frameActed:
		return "acted"
	case frameBye:
		return "bye"
	case frameError:
		return "error"
	default:
		return fmt.Sprintf("frame(%d)", byte(t))
	}
}

// writeFrame sends one frame: a 4-byte big-endian length covering the
// version byte, the type byte and the JSON body, followed by those bytes.
func writeFrame(w io.Writer, t frameType, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("wire: marshal %v frame: %w", t, err)
	}
	if len(data)+2 > maxFrameSize {
		return fmt.Errorf("wire: %v frame of %d bytes exceeds the %d-byte frame cap", t, len(data), maxFrameSize)
	}
	buf := make([]byte, 4+2+len(data))
	binary.BigEndian.PutUint32(buf, uint32(2+len(data)))
	buf[4] = frameVersion
	buf[5] = byte(t)
	copy(buf[6:], data)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %v frame: %w", t, err)
	}
	return nil
}

// readFrame reads one frame and returns its type and JSON body.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size < 2 || size > maxFrameSize {
		return 0, nil, fmt.Errorf("wire: frame size %d outside [2, %d]", size, maxFrameSize)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	if buf[0] != frameVersion {
		return 0, nil, fmt.Errorf("wire: frame version %d, want %d", buf[0], frameVersion)
	}
	return frameType(buf[1]), buf[2:], nil
}

// Frame bodies. Node-addressed bodies repeat the node ID so both sides can
// cross-check routing.

type helloBody struct {
	Node  int    `json:"node"`
	Token string `json:"token"`
}

type specBody struct {
	Blueprint network.Blueprint `json:"blueprint"`
}

type readyBody struct {
	Node int `json:"node"`
}

type initBody struct{}

// wireMessage is one delivered message of a round inbox.
type wireMessage struct {
	From    int             `json:"from"`
	Payload payloadEnvelope `json:"payload"`
}

type roundBody struct {
	Round int           `json:"round"`
	Inbox []wireMessage `json:"inbox,omitempty"`
}

// wireSend is one outbox emission of an Init or Round step, in emission
// order.
type wireSend struct {
	To      int             `json:"to"`
	Payload payloadEnvelope `json:"payload"`
}

type actedBody struct {
	Round    int        `json:"round"`
	Sends    []wireSend `json:"sends,omitempty"`
	Halted   bool       `json:"halted,omitempty"`
	Decided  bool       `json:"decided,omitempty"`
	Decision string     `json:"decision,omitempty"`
}

type errorBody struct {
	Msg string `json:"msg"`
}

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// The committed corpora under testdata/fuzz hold frames read by both ends
// of real wire runs (pka at ad hoc and full knowledge, honest and under
// the spammer and equivocator strategies, zcpa, mbrb and smt), one frame
// of each type and every round or acted frame that first carried a payload
// kind, and for FuzzDecodePayload the payload envelopes of those frames.

// FuzzDecodePayload: decodePayload never panics on an envelope from the
// wire, and an envelope it accepts re-encodes through encodePayload to the
// same kind and key.
func FuzzDecodePayload(f *testing.F) {
	for _, env := range []string{
		// IDs no node set can hold: each must be an error, not a panic or
		// an allocation sized by the ID.
		`{"kind":"core/info","data":{"node":1,"view":"0-1","domain":[-1]},"key":"k","bits":1}`,
		`{"kind":"core/info","data":{"node":1,"view":"0-1","domain":[0,1],"sets":[[-3]]},"key":"k","bits":1}`,
		`{"kind":"core/info","data":{"node":1,"view":"0-1","domain":[100000000]},"key":"k","bits":1}`,
		`{"kind":"core/info","data":{"node":-1,"view":"0-1","domain":[0,1]},"key":"k","bits":1}`,
		`{"kind":"core/value","data":{"x":"v","p":[0,-2]},"key":"k","bits":1}`,
		`{"kind":"smt/share","data":{"idx":0,"p":[2000000],"x":"s"},"key":"k","bits":1}`,
	} {
		f.Add([]byte(env))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var env payloadEnvelope
		if json.Unmarshal(raw, &env) != nil {
			return
		}
		p, err := decodePayload(env)
		if err != nil {
			return
		}
		again, err := encodePayload(p)
		if err != nil {
			t.Fatalf("accepted %s, but it does not re-encode: %v", raw, err)
		}
		if again.Kind != env.Kind || again.Key != env.Key {
			t.Fatalf("accepted %s, re-encoded as kind %q key %q", raw, again.Kind, again.Key)
		}
	})
}

// FuzzReadFrame: readFrame never panics, and a frame it accepts consumed
// exactly the length its header declares, and no more of the stream.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameError, errorBody{Msg: "boom"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 2, frameVersion, byte(frameBye), 0xff}) // a bye and one byte of the next frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameVersion})           // a length past the cap
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		ft, body, err := readFrame(r)
		if err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(data))
		if consumed := len(data) - r.Len(); consumed != 4+size {
			t.Fatalf("frame of declared length %d consumed %d bytes", size, consumed)
		}
		if ft != frameType(data[5]) || !bytes.Equal(body, data[6:4+size]) {
			t.Fatalf("frame of declared length %d read as type %v body %q", size, ft, body)
		}
	})
}

package server

import (
	"bytes"
	"math"
	"strconv"
	"time"

	"rmt/internal/instance"
)

// This file holds rmtd's hot-path JSON, read in one pass without
// reflection, and its access-log line (DESIGN §32).
//
// Requests. decodeBody reads the four request shapes — FeasibilityRequest,
// RunRequest, a watch's InstanceRequest line and each instance.Delta line —
// straight from their bytes when they use JSON's plain grammar: one object
// whose keys are the shape's exact field names, each at most once, with
// values that are strings of printable ASCII without escapes, integers
// without fraction, exponent, leading zero or "-0" that fit their field,
// true or false, and arrays of integers or of integer pairs; whitespace
// anywhere JSON allows it. Every other body goes to decodeOne on the same
// bytes: case-folded or escaped keys, null,
// exponents, overflow, duplicate keys, short or long pairs, non-ASCII text.
// decodeOne is therefore the only judge of those spellings and the author
// of every error text, and the plain reader writes nothing into v unless it
// read the whole body.
//
// Logging. The access-log line is appended into one buffer byte for byte
// as json.Marshal wrote it. It carries no client text — a time, a method
// the mux routed, an endpoint path, a status, milliseconds and a cache
// disposition — so no string in it needs escaping.

// decodeBody decodes body into v as decodeOne does: v is a
// *FeasibilityRequest, *RunRequest, *InstanceRequest or *instance.Delta
// read by the plain reader when it can, or any value decodeOne accepts.
func decodeBody(body []byte, v any) error {
	if scanPlain(body, v) {
		return nil
	}
	return decodeOne(bytes.NewReader(body), v)
}

// scanPlain decodes body into v and reports true when v is one of the
// four request shapes and body is one plain object of its fields followed
// by whitespace only. On false v is untouched. Each case calls its field
// reader directly: through a func value, q would move to the heap.
func scanPlain(body []byte, v any) bool {
	p := plain{b: body}
	switch v := v.(type) {
	case *FeasibilityRequest:
		var q FeasibilityRequest
		if p.object(func(k []byte) (uint32, bool) { return p.feasibilityField(&q, k) }) && p.end() {
			*v = q
			return true
		}
	case *RunRequest:
		var q RunRequest
		if p.object(func(k []byte) (uint32, bool) { return p.runField(&q, k) }) && p.end() {
			*v = q
			return true
		}
	case *InstanceRequest:
		var q InstanceRequest
		if p.object(func(k []byte) (uint32, bool) { return p.instanceField(&q, k) }) && p.end() {
			*v = q
			return true
		}
	case *instance.Delta:
		var q instance.Delta
		if p.object(func(k []byte) (uint32, bool) { return p.deltaField(&q, k) }) && p.end() {
			*v = q
			return true
		}
	}
	return false
}

// plain reads JSON's plain grammar from b, starting at i. Every method
// skips the whitespace before its token and reports false on any byte
// outside the grammar.
type plain struct {
	b []byte
	i int
}

func (p *plain) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// take consumes c.
func (p *plain) take(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *plain) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// object reads one object. field reads the value of key k and returns its
// field's bit, which must not repeat; a key that names no field fails.
func (p *plain) object(field func(k []byte) (bit uint32, ok bool)) bool {
	if !p.take('{') {
		return false
	}
	if p.take('}') {
		return true
	}
	var seen uint32
	for {
		k, ok := p.text()
		if !ok || !p.take(':') {
			return false
		}
		bit, ok := field(k)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !p.take(',') {
			return p.take('}')
		}
	}
}

// text reads a string of printable ASCII without escapes and returns its
// bytes, which alias b.
func (p *plain) text() ([]byte, bool) {
	if !p.take('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *plain) str() (string, bool) {
	s, ok := p.text()
	return string(s), ok
}

// int64 reads 0, or an optional minus and digits that start with 1–9,
// within int64. A leading zero ends the number, so "01" fails at the next
// token.
func (p *plain) int64() (int64, bool) {
	p.ws()
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' || neg && b[i] == '0' {
		return 0, false
	}
	if b[i] == '0' {
		p.i = i + 1
		return 0, true
	}
	// Nineteen digits cannot overflow a uint64; twenty never fit an int64.
	var u uint64
	for start := i; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case neg && u <= 1<<63:
		p.i = i
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		p.i = i
		return int64(u), true
	}
	return 0, false
}

func (p *plain) int() (int, bool) {
	v, ok := p.int64()
	return int(v), ok && int64(int(v)) == v
}

func (p *plain) bool() (bool, bool) {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// ints reads an array of integers. [] gives an empty slice, not nil, as
// encoding/json does.
func (p *plain) ints() ([]int, bool) {
	if !p.take('[') {
		return nil, false
	}
	out := []int{}
	if p.take(']') {
		return out, true
	}
	for {
		v, ok := p.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if !p.take(',') {
			return out, p.take(']')
		}
	}
}

// pairs reads an array of two-integer arrays. A shorter or longer inner
// array fails: encoding/json would pad or truncate it.
func (p *plain) pairs() ([][2]int, bool) {
	if !p.take('[') {
		return nil, false
	}
	out := [][2]int{}
	if p.take(']') {
		return out, true
	}
	for {
		var e [2]int
		var ok bool
		if !p.take('[') {
			return nil, false
		}
		if e[0], ok = p.int(); !ok || !p.take(',') {
			return nil, false
		}
		if e[1], ok = p.int(); !ok || !p.take(']') {
			return nil, false
		}
		out = append(out, e)
		if !p.take(',') {
			return out, p.take(']')
		}
	}
}

// instanceField reads InstanceRequest field k into q; its bits are 0–4.
func (p *plain) instanceField(q *InstanceRequest, k []byte) (bit uint32, ok bool) {
	switch string(k) {
	case "graph":
		q.Graph, ok = p.str()
		return 1 << 0, ok
	case "structure":
		q.Structure, ok = p.str()
		return 1 << 1, ok
	case "knowledge":
		q.Knowledge, ok = p.str()
		return 1 << 2, ok
	case "dealer":
		q.Dealer, ok = p.int()
		return 1 << 3, ok
	case "receiver":
		q.Receiver, ok = p.int()
		return 1 << 4, ok
	}
	return 0, false
}

func (p *plain) feasibilityField(q *FeasibilityRequest, k []byte) (bit uint32, ok bool) {
	switch string(k) {
	case "ma_budget":
		q.MABudget, ok = p.int()
		return 1 << 5, ok
	case "listen":
		q.Listen, ok = p.str()
		return 1 << 6, ok
	}
	return p.instanceField(&q.InstanceRequest, k)
}

func (p *plain) runField(q *RunRequest, k []byte) (bit uint32, ok bool) {
	switch string(k) {
	case "protocol":
		q.Protocol, ok = p.str()
		return 1 << 5, ok
	case "value":
		q.Value, ok = p.str()
		return 1 << 6, ok
	case "engine":
		q.Engine, ok = p.str()
		return 1 << 7, ok
	case "schedule":
		q.Schedule, ok = p.str()
		return 1 << 8, ok
	case "seed":
		q.Seed, ok = p.int64()
		return 1 << 9, ok
	case "trials":
		q.Trials, ok = p.int()
		return 1 << 10, ok
	case "corrupt":
		q.Corrupt, ok = p.ints()
		return 1 << 11, ok
	case "attack":
		q.Attack, ok = p.str()
		return 1 << 12, ok
	case "forged":
		q.Forged, ok = p.str()
		return 1 << 13, ok
	case "max_rounds":
		q.MaxRounds, ok = p.int()
		return 1 << 14, ok
	case "transcript":
		q.Transcript, ok = p.bool()
		return 1 << 15, ok
	}
	return p.instanceField(&q.InstanceRequest, k)
}

func (p *plain) deltaField(d *instance.Delta, k []byte) (bit uint32, ok bool) {
	switch string(k) {
	case "add_nodes":
		d.AddNodes, ok = p.ints()
		return 1 << 0, ok
	case "add_edges":
		d.AddEdges, ok = p.pairs()
		return 1 << 1, ok
	case "remove_edges":
		d.RemoveEdges, ok = p.pairs()
		return 1 << 2, ok
	case "remove_nodes":
		d.RemoveNodes, ok = p.ints()
		return 1 << 3, ok
	}
	return 0, false
}

// ---------------------------------------------------------------- logging

// appendLogLine appends one access-log line. method is one the mux routed
// (GET, HEAD or POST), path an endpoint constant and cache "hit", "peer",
// "miss" or "", which the line omits. ms has at most three decimals and is
// 0 or within [0.001, 1e16), where json.Marshal writes a float64 in 'f'
// format too.
func appendLogLine(b []byte, t time.Time, method, path string, status int, d time.Duration, cache string) []byte {
	b = append(b, `{"time":"`...)
	b = t.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","method":"`...)
	b = append(b, method...)
	b = append(b, `","path":"`...)
	b = append(b, path...)
	b = append(b, `","status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"ms":`...)
	b = strconv.AppendFloat(b, float64(d.Microseconds())/1000, 'f', -1, 64)
	if cache != "" {
		b = append(b, `,"cache":"`...)
		b = append(b, cache...)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"rmt/internal/graph"
	"rmt/internal/instance"
)

// requestShapes makes a fresh value of each request shape the plain
// reader knows.
var requestShapes = []func() any{
	func() any { return new(FeasibilityRequest) },
	func() any { return new(RunRequest) },
	func() any { return new(InstanceRequest) },
	func() any { return new(instance.Delta) },
}

// fallbackSpellings are bodies that use JSON outside the plain grammar, so
// the plain reader must hand them to decodeOne for every shape. decodeOne
// accepts many of them, some with a value the plain reader would get
// wrong: "ſeed" and GRAPH fold onto seed and graph, null keeps the zero
// value, -0 is 0, a later duplicate wins, and a short or long pair is
// padded or cut.
var fallbackSpellings = []string{
	`{"\u0067raph":"0-1 1-2","dealer":0,"receiver":2}`,
	`{"GRAPH":"0-1 1-2","dealer":0,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"ſeed":7}`,
	`{"graph":null,"dealer":0,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2e0}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":1.0}`,
	`{"graph":"0-1 1-2","dealer":-0,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":00,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":01,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"seed":9223372036854775808}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"seed":-9223372036854775809}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":18446744073709551616}`,
	`{"graph":"0-1","graph":"0-1 1-2","dealer":0,"receiver":2}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"corrupt":[1],"corrupt":[]}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"transcript":null}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"transcript":True}`,
	`{"graph":"0-1 1-2 2-é","dealer":0,"receiver":2}`,
	"{\"graph\":\"0-1 1-2\x7f\",\"dealer\":0,\"receiver\":2}",
	`{"graph":"0-1 1-2","dealer":0,"receiver":2}garbage`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2} {"x":1}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,}`,
	"\ufeff" + `{"graph":"0-1 1-2","dealer":0,"receiver":2}`,
	`{"add_edges":[[0,1,2]]}`,
	`{"add_edges":[[0]]}`,
	`{"add_edges":[[]]}`,
	`{"add_edges":null}`,
	`{"ADD_NODES":[3],"add_edges":[[1,3]]}`,
	`{"add_nodes":[3],"add_nodes":[4]}`,
	`{"add_nodes":[3e0]}`,
	`{"add_nodes":[-0]}`,
	`{"add_nodes":[03]}`,
	`{"remove_nodes":[9223372036854775808]}`,
	`{"remove_edges":[[1,2],]}`,
	`[{"add_nodes":[3]}]`,
	`null`,
	``,
}

// plainSpellings are bodies in the plain grammar: the plain reader must
// read each for at least one shape.
var plainSpellings = []string{
	`{}`,
	" \t\r\n{ \"graph\" : \"0-1 1-2\" , \"dealer\" : 0 , \"receiver\" : 2 } \n",
	`{"graph":"0-1 1-2","structure":"1","knowledge":"full","dealer":0,"receiver":2,"ma_budget":2,"listen":"1;2"}`,
	`{"graph":"","structure":"","knowledge":"","dealer":-3,"receiver":9223372036854775807}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"seed":-9223372036854775808,"trials":3,"corrupt":[],"transcript":false}`,
	`{"graph":"0-1 1-2","dealer":0,"receiver":2,"protocol":"pka","value":"attack at dawn","engine":"async","schedule":"lifo","seed":7,"trials":2,"corrupt":[1,-1,0],"attack":"value-flip","forged":"!#$%'()*+,-./:;=?@[]^_{|}~","max_rounds":64,"transcript":true}`,
	`{"add_nodes":[],"add_edges":[],"remove_edges":[],"remove_nodes":[]}`,
	`{"add_nodes":[3,4],"add_edges":[[0,3],[3,4]],"remove_edges":[[1,2]],"remove_nodes":[5]}`,
	`{ "add_edges" : [ [ 0 , 3 ] , [ 3 , 4 ] ] }`,
}

// checkDecodeMatchesReference requires decodeBody to return decodeOne's
// value and error text on body for every shape, and returns how many
// shapes the plain reader read.
func checkDecodeMatchesReference(t *testing.T, body []byte) (read int) {
	t.Helper()
	for _, shape := range requestShapes {
		got, want := shape(), shape()
		if scanPlain(body, shape()) {
			read++
		}
		gotErr, wantErr := decodeBody(body, got), decodeOne(bytes.NewReader(body), want)
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q: got %+v, %v; decodeOne %+v, %v", got, body, got, gotErr, want, wantErr)
		}
	}
	return read
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestPlainReaderFallsBack(t *testing.T) {
	for _, body := range fallbackSpellings {
		if read := checkDecodeMatchesReference(t, []byte(body)); read != 0 {
			t.Errorf("%q: the plain reader read %d shapes, want a fallback for all", body, read)
		}
	}
	for _, body := range plainSpellings {
		if checkDecodeMatchesReference(t, []byte(body)) == 0 {
			t.Errorf("%q: no shape took the plain path", body)
		}
	}
}

// TestMarshaledBodiesTakePlainPath: every body json.Marshal makes from the
// four request shapes with strings of printable ASCII other than <, >, &,
// " and \ — the characters it escapes — takes the plain path and decodes
// to decodeOne's value, indented or not. Every rmtdbench workload body is
// such a body.
func TestMarshaledBodiesTakePlainPath(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 500; i++ {
		q := InstanceRequest{Graph: plainText(r), Structure: plainText(r), Knowledge: plainText(r), Dealer: anyInt(r), Receiver: anyInt(r)}
		for _, v := range []any{
			&q,
			&FeasibilityRequest{InstanceRequest: q, MABudget: anyInt(r), Listen: plainText(r)},
			&RunRequest{
				InstanceRequest: q, Protocol: plainText(r), Value: plainText(r), Engine: plainText(r),
				Schedule: plainText(r), Seed: int64(anyInt(r)), Trials: anyInt(r), Corrupt: anyInts(r),
				Attack: plainText(r), Forged: plainText(r), MaxRounds: anyInt(r), Transcript: r.Intn(2) == 0,
			},
			&instance.Delta{AddNodes: anyInts(r), AddEdges: anyPairs(r), RemoveEdges: anyPairs(r), RemoveNodes: anyInts(r)},
		} {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var indented bytes.Buffer
			if err := json.Indent(&indented, body, " ", "\t"); err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]byte{body, indented.Bytes()} {
				got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
				if !scanPlain(b, got) {
					t.Fatalf("%s fell back", b)
				}
				checkDecodeMatchesReference(t, b)
			}
		}
	}
}

// plainText is a string of up to 12 printable ASCII bytes that
// json.Marshal writes without escapes.
func plainText(r *rand.Rand) string {
	b := make([]byte, r.Intn(13))
	for i := range b {
		b[i] = byte(0x20 + r.Intn(0x7f-0x20))
		if strings.IndexByte(`<>&"\`, b[i]) >= 0 {
			b[i] = 'x'
		}
	}
	return string(b)
}

func anyInt(r *rand.Rand) int {
	switch r.Intn(6) {
	case 0:
		return math.MaxInt
	case 1:
		return math.MinInt
	case 2:
		return r.Int()
	case 3:
		return -r.Int()
	}
	return r.Intn(21) - 10
}

// anyInts is nil, empty or up to five ints.
func anyInts(r *rand.Rand) []int {
	if r.Intn(4) == 0 {
		return nil
	}
	out := []int{}
	for n := r.Intn(6); n > 0; n-- {
		out = append(out, anyInt(r))
	}
	return out
}

func anyPairs(r *rand.Rand) [][2]int {
	if r.Intn(4) == 0 {
		return nil
	}
	out := [][2]int{}
	for n := r.Intn(4); n > 0; n-- {
		out = append(out, [2]int{anyInt(r), anyInt(r)})
	}
	return out
}

// TestLogLineMatchesMarshal: the access-log line is the bytes json.Marshal
// wrote for the struct it replaced, for durations from 0 to seconds, every
// cache value and every method the mux routes.
func TestLogLineMatchesMarshal(t *testing.T) {
	type entry struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		Ms     float64 `json:"ms"`
		Cache  string  `json:"cache,omitempty"`
	}
	durations := []time.Duration{0, 1, 999, time.Microsecond, 10 * time.Microsecond, 999 * time.Microsecond,
		time.Millisecond, 1001 * time.Microsecond, 12345 * time.Microsecond, 999999 * time.Microsecond,
		time.Second, 1500 * time.Millisecond, 59999999 * time.Microsecond, time.Hour}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 1000; i++ {
		durations = append(durations, time.Duration(r.Int63n(int64(60*time.Second))))
	}
	zone := time.FixedZone("east", 5*3600+1800)
	for i, d := range durations {
		at := time.Unix(1_700_000_000+int64(i), int64(r.Intn(1e9))).In(zone)
		if i%10 == 0 {
			at = at.Truncate(time.Second)
		}
		for _, cache := range []string{"", "hit", "peer", "miss"} {
			for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost} {
				want, err := json.Marshal(entry{at.UTC().Format(time.RFC3339Nano), method, "/v1/feasibility", http.StatusOK, float64(d.Microseconds()) / 1000, cache})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				if got := appendLogLine(nil, at, method, "/v1/feasibility", http.StatusOK, d, cache); !bytes.Equal(got, want) {
					t.Fatalf("log line for %v, cache %q\n%s\nwant\n%s", d, cache, got, want)
				}
			}
		}
	}
}

// feasibilityHotBody is shaped like a feasibility-hot request: a
// respelled 12-node G(n, p) instance at radius 2 with a listening
// structure, 174 bytes.
const feasibilityHotBody = `{"graph":"4-9 0-1 7-11 2-5 9-10 1-6 3-8 11-5 0-3 6-10 2-7 8-11 4-1 3-9 5-10 7-0 9-2 6-11",` +
	`"structure":"3,8;6","knowledge":"radius2","dealer":0,"receiver":11,"listen":"7;2,9"}`

// TestDecodeAllocBudget: a body shaped like feasibility-hot's decodes with
// one allocation per string field and fewer bytes than the body holds.
// decodeOne takes 13 allocations and 1,192 bytes for it; the plain reader
// takes 4 and 104.
func TestDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	body := []byte(feasibilityHotBody)
	var req FeasibilityRequest
	if !scanPlain(body, &req) {
		t.Fatal("the body fell back")
	}
	const stringFields, runs = 4, 100
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		req = FeasibilityRequest{}
		if err := decodeBody(body, &req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d-byte body: %.0f allocations, %.0f bytes", len(body), allocs, bytes)
	if allocs > stringFields {
		t.Errorf("decode takes %.0f allocations, budget %d (one per string field)", allocs, stringFields)
	}
	if bytes > float64(len(body)) {
		t.Errorf("decode allocates %.0f bytes, budget %d (the body's length)", bytes, len(body))
	}
}

// FuzzDecodeMatchesReference: for every input and each of the four
// request shapes, decodeBody returns decodeOne's value and error text on
// the same bytes — whether the plain reader read the body or handed it on.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, body := range append(append([]string{feasibilityHotBody}, plainSpellings...), fallbackSpellings...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesReference(t, body)
	})
}

// FuzzFeasibilityRequest posts each input as a /v1/feasibility body to one
// in-process server whose body limit is 1 KiB: every answer must be 200,
// 400 or 413 with a JSON body. A rejection is the client's mistake, never
// a 500 or a dropped connection. To bound the cost of one input, a body
// whose graph decodes with more than 10 nodes is skipped.
func FuzzFeasibilityRequest(f *testing.F) {
	for _, body := range append(append([]string{
		feasibilityHotBody,
		solvableButterfly,
		`{"graph":"0-1 0-2 1-3 2-3","structure":"1;2","dealer":0,"receiver":3,"knowledge":"full"}`,
		`{"graph":"0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4","structure":"1;2","dealer":0,"receiver":4,"ma_budget":1}`,
		`{"graph":"0-1 0-2 0-3 1-4 2-4 3-4","structure":"1;2","dealer":0,"receiver":4,"listen":"3;1,2"}`,
		`{"graph":"0-1 1-2","dealer":0,"receiver":2,"ma_budget":-1}`,
		`{"graph":"0-1 1-2","dealer":0,"receiver":2,"listen":"x"}`,
		`{"graph":"0-1 1-2","dealer":0,"receiver":2,"knowledge":"psychic"}`,
		`{"graph":"0-1 1-2","dealer":0,"receiver":2,"seed":1}`,
		`{"graph":"0-1 1-2","dealer":0,"receiver":2}` + strings.Repeat(" ", 1024),
	}, plainSpellings...), fallbackSpellings...) {
		f.Add([]byte(body))
	}
	srv := New(Options{LogWriter: io.Discard, MaxBodyBytes: 1 << 10})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req FeasibilityRequest
		if decodeOne(bytes.NewReader(body), &req) == nil {
			if g, err := graph.ParseEdgeList(req.Graph); err == nil && g.NumNodes() > 10 {
				t.Skip("more than 10 nodes")
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feasibility", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for %q: body is not JSON: %q", rec.Code, body, rec.Body.Bytes())
		}
	})
}

package main

// The data-path codec against encoding/json, which it replaced and which
// stays here as the oracle: the request scanner is fuzzed and table-tested
// against the reflective decode the handler used to run, replies are compared
// byte for byte with json.Marshal, and the pooled buffers are exercised from
// several goroutines at once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/entity"
	"repro/internal/loadgen"
)

// --- the oracle: what handleEntity did before codec.go ----------------------

// oracleRequest is the old opRequest, its set values wrapped so the oracle
// can tell that a container was ever offered for a field (a later duplicate
// would otherwise hide it).
type oracleRequest struct {
	Set      map[string]*oracleValue `json:"set,omitempty"`
	Delta    map[string]float64      `json:"delta,omitempty"`
	Describe string                  `json:"describe,omitempty"`
}

type oracleValue struct {
	v interface{}
}

var oracleSawContainer bool // single-goroutine use: the table test and the fuzz worker

func (o *oracleValue) UnmarshalJSON(b []byte) error {
	if b[0] == '{' || b[0] == '[' {
		oracleSawContainer = true
	}
	return json.Unmarshal(b, &o.v)
}

func oracleNormalise(v interface{}) interface{} {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int64(f)
	}
	return v
}

// oracleOps decodes body as the old handler did. tightened reports that the
// body is one the new edge refuses on purpose: a container as a set value, or
// anything but whitespace after the object.
func oracleOps(body []byte) (ops []entity.Op, tightened bool, err error) {
	oracleSawContainer = false
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	for field, value := range req.Set {
		var v interface{}
		if value != nil {
			v = value.v
		}
		ops = append(ops, repro.Set(field, oracleNormalise(v)).Described(req.Describe))
	}
	for field, delta := range req.Delta {
		ops = append(ops, repro.Delta(field, delta).Described(req.Describe))
	}
	if len(ops) == 0 {
		return nil, false, errNoOps
	}
	trailing := len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
	return ops, oracleSawContainer || trailing, nil
}

func decodeWithCodec(body []byte) ([]entity.Op, error) {
	e := getEdgeBuf()
	defer putEdgeBuf(e)
	e.b = append(e.b[:0], body...)
	return e.decodeOps()
}

func sortOps(ops []entity.Op) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Kind != ops[j].Kind {
			return ops[i].Kind < ops[j].Kind
		}
		return ops[i].Field < ops[j].Field
	})
}

// sameOps compares two op lists as sets, floats by bit pattern.
func sameOps(a, b []entity.Op) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]entity.Op(nil), a...), append([]entity.Op(nil), b...)
	sortOps(a)
	sortOps(b)
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Delta) != math.Float64bits(y.Delta) {
			return false
		}
		x.Delta, y.Delta = 0, 0
		if fx, ok := x.Value.(float64); ok {
			fy, ok := y.Value.(float64)
			if !ok || math.Float64bits(fx) != math.Float64bits(fy) {
				return false
			}
			x.Value, y.Value = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkAgainstOracle is the whole contract of decodeOps.
func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, tightened, wantErr := oracleOps(body)
	got, gotErr := decodeWithCodec(body)
	switch {
	case wantErr != nil || tightened:
		if gotErr == nil {
			t.Fatalf("body %q: accepted as %v; the oracle says err=%v tightened=%v", body, got, wantErr, tightened)
		}
	case gotErr != nil:
		t.Fatalf("body %q: refused (%v); the oracle decodes %v", body, gotErr, want)
	case !sameOps(got, want):
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
}

// loadgenBodies is the bodies among each load scenario's first n requests;
// a few dozen cover every shape a scenario emits.
func loadgenBodies(t testing.TB, n uint64) []string {
	scenarios, err := loadgen.Scenarios("crm,banking,inventory,bookstore", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sc := range scenarios {
		for i := uint64(0); i < n; i++ {
			if req := sc.Request(i); req.Body != "" {
				out = append(out, req.Body)
			}
		}
	}
	out = append(out, `{"delta":{"balance":1},"describe":"slo probe"}`) // loadgen's probe
	return out
}

var codecCases = []string{
	// the documented shapes
	`{"set":{"status":"OPEN","total":99.5}}`,
	`{"delta":{"balance":-2.5},"describe":"withdrawal"}`,
	`{"describe":"first","set":{"a":1},"delta":{"b":2}}`,
	` { "set" : { "a" : true , "b" : null , "c" : false } } ` + "\r\n\t",
	// unknown keys, nested values included, are skipped but must be JSON
	`{"note":{"deep":[1,{"x":[[]]},"s",null,true]},"delta":{"x":1}}`,
	`{"note":[1,2,],"delta":{"x":1}}`,
	`{"note":{"a":1,},"delta":{"x":1}}`,
	`{"note":1e999,"delta":{"x":1}}`,
	`{"note":"\q","delta":{"x":1}}`,
	`{"note":tru,"delta":{"x":1}}`,
	`{"note":` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `,"delta":{"x":1}}`,
	`{"note":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `,"delta":{"x":1}}`,
	`{"note":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `,"delta":{"x":1}}`,
	`{"note":` + strings.Repeat(`{"a":`, maxNesting) + `1` + strings.Repeat("}", maxNesting) + `,"delta":{"x":1}}`,
	// duplicates: the last value, never the sum; a repeated set or delta merges
	`{"delta":{"x":1,"x":2}}`,
	`{"delta":{"x":1},"delta":{"x":2,"y":3}}`,
	`{"set":{"a":1},"set":{"b":2},"set":null}`,
	`{"set":{"a":1,"a":"s","a":null}}`,
	`{"delta":{"x":5,"x":null}}`,
	`{"describe":"a","describe":"b","delta":{"x":1}}`,
	`{"describe":"a","describe":null,"delta":{"x":1}}`,
	`{"set":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10,"a":11,"j":12,"k":13,"k":14}}`,
	`{"set":{"x":1},"delta":{"x":1}}`,
	// keys fold the way encoding/json folds struct field names
	`{"SET":{"a":1},"Delta":{"b":2},"DESCRIBE":"d"}`,
	`{"ſet":{"a":1},"deſcribe":"long s"}`,
	`{"s\u0065t":{"a":1}}`,
	`{"set ":{"a":1},"delta":{"x":1}}`,
	// numbers: integral set values become int64 exactly where they fit
	`{"set":{"a":0,"b":-0,"c":1.0,"d":1e3,"e":1.5,"f":-7,"g":1e-7,"h":1E+2}}`,
	`{"set":{"a":9223372036854775807,"b":9223372036854775808,"c":-9223372036854775808,"d":-9223372036854775809,"e":1e300}}`,
	`{"set":{"a":1e999}}`,
	`{"delta":{"a":1e999}}`,
	`{"delta":{"a":-1e-999,"b":0.000001,"c":123456789012345678901234567890}}`,
	`{"delta":{"x":01}}`, `{"delta":{"x":+1}}`, `{"delta":{"x":.5}}`, `{"delta":{"x":1.}}`,
	`{"delta":{"x":1e}}`, `{"delta":{"x":-}}`, `{"delta":{"x":0x10}}`, `{"delta":{"x":1e+}}`,
	`{"delta":{"x":NaN}}`, `{"delta":{"x":Infinity}}`, `{"set":{"x":-01}}`,
	// strings: escapes, surrogates, invalid UTF-8, controls
	`{"set":{"a":"q\"b\\s\/\b\f\n\r\t"}}`,
	`{"set":{"a":"\u00e9\u4e16\uD83D\uDE00"},"describe":"caf\u00e9"}`,
	`{"set":{"a":"\ud800","b":"\ud800\u0041","c":"\udc00\ud800","d":"\ud800\ud800\udc00","e":"\uD83D\u"}}`,
	`{"set":{"a":"\uD83D\uDE0"}}`,
	`{"set":{"a":"\u12G4"}}`, `{"set":{"a":"\'"}}`, `{"set":{"a":"\`,
	"{\"set\":{\"a\":\"bad \xff\xfe utf8 \xc3\",\"\xff\":1}}",
	"{\"set\":{\"a\":\"caf\xc3\xa9 \xe4\xb8\x96 \xf0\x9f\x98\x80\"}}",
	"{\"set\":{\"a\":\"line\nbreak\"}}",
	"{\"set\":{\"a\":\"tab\there\"}}",
	"{\"set\":{\"a\":\"del\x7f\"}}",
	`{"set":{"":1},"delta":{"":2}}`,
	// wrong types
	`{"set":5}`, `{"set":[1]}`, `{"set":"x"}`, `{"delta":{"x":"1"}}`, `{"delta":{"x":true}}`,
	`{"delta":[1]}`, `{"delta":{"x":{}}}`, `{"describe":5,"delta":{"x":1}}`, `{"describe":{},"delta":{"x":1}}`,
	// not an object, nothing to do, broken framing
	``, ` `, `null`, `[]`, `5`, `"s"`, `{}`, `{"set":{}}`, `{"set":null,"delta":null}`, `{"describe":"only"}`,
	`{`, `{"set"`, `{"set":`, `{"set":{`, `{"set":{"a"`, `{"set":{"a":1`, `{"set":{"a":1}`, `{,}`, `{"a" 1}`,
	`{"delta":{"x":1},}`, `{"delta":{"x":1}"y":2}`, `{"delta":{"x":1 "y":2}}`, `{'delta':{'x':1}}`, `{delta:{x:1}}`,
	`{"delta":{"x":nul}}`, `{"set":{"x":nulll}}`, `{"set":{"x":truee}}`,
	// the stated tightenings: trailing bytes and containers as set values
	`{"delta":{"x":1}} x`, `{"delta":{"x":1}}{"delta":{"x":2}}`, `{"delta":{"x":1}}]`, `{"delta":{"x":1}}` + "\x00",
	`{"set":{"a":[1,2]}}`, `{"set":{"a":{"b":1}}}`, `{"set":{"a":[1],"a":5}}`, `{"set":{"a":5,"a":{}}}`,
}

func TestOpsDecodeMatchesOracle(t *testing.T) {
	for _, body := range loadgenBodies(t, 300) {
		checkAgainstOracle(t, []byte(body))
		if _, err := decodeWithCodec([]byte(body)); err != nil {
			t.Fatalf("load scenario body %q refused: %v", body, err)
		}
	}
	for _, body := range codecCases {
		checkAgainstOracle(t, []byte(body))
	}
	// Past linearDedupe the scanner indexes fields; the answer must not change.
	var many strings.Builder
	many.WriteString(`{"delta":{`)
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&many, `"f%d":%d,`, i%1000, i)
	}
	many.WriteString(`"last":1}}`)
	checkAgainstOracle(t, []byte(many.String()))
}

// TestOpsDecodeKeepsBodyOrder: ops come out in the order the body names
// them, a duplicate keeping its first position.
func TestOpsDecodeKeepsBodyOrder(t *testing.T) {
	ops, err := decodeWithCodec([]byte(`{"delta":{"z":1},"set":{"b":"x","a":2,"b":"y"},"describe":"d","delta":{"m":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []entity.Op{
		{Kind: entity.OpDelta, Field: "z", Delta: 1, Describe: "d"},
		{Kind: entity.OpSet, Field: "b", Value: "y", Describe: "d"},
		{Kind: entity.OpSet, Field: "a", Value: int64(2), Describe: "d"},
		{Kind: entity.OpDelta, Field: "m", Delta: 3, Describe: "d"},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("got %#v\nwant %#v", ops, want)
	}
	if cap(ops) != len(ops) {
		t.Fatalf("ops has cap %d for len %d; the store keeps this slice, it must be exact", cap(ops), len(ops))
	}
}

// FuzzOpsDecode: on any body the scanner and the oracle agree on accept or
// refuse and on the ops as a set (modulo the stated tightenings, which
// oracleOps names), nothing panics, and what the scanner holds on to is
// bounded by the body: a byte grows to at most one three-byte U+FFFD, and
// append at most doubles that.
func FuzzOpsDecode(f *testing.F) {
	for _, body := range loadgenBodies(f, 40) {
		f.Add([]byte(body))
	}
	for _, body := range codecCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			return
		}
		checkAgainstOracle(t, body)
		e := &edgeBuf{b: body}
		_, _ = e.decodeOps()
		if cap(e.text) > 6*len(body)+64 || len(e.ops) != 0 || e.seen != nil {
			t.Fatalf("body of %d bytes left text=%d ops=%d seen=%v behind", len(body), cap(e.text), len(e.ops), e.seen != nil)
		}
	})
}

// --- the handler around the scanner -------------------------------------------

func TestEntityPostRefusalsAtTheEdge(t *testing.T) {
	s, _ := newTestServer(t, 0)
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"malformed", `{"delta":{"balance":}}`, http.StatusBadRequest},
		{"number grammar", `{"delta":{"balance":01}}`, http.StatusBadRequest},
		{"no operations", `{"describe":"nothing"}`, http.StatusBadRequest},
		{"trailing bytes", `{"delta":{"balance":1}} {"delta":{"balance":1}}`, http.StatusBadRequest},
		{"container as set value", `{"set":{"owner":["a","b"]}}`, http.StatusBadRequest},
		{"at the cap", `{"delta":{"balance":1},"pad":"` + strings.Repeat("x", maxBodyBytes-35) + `"}`, http.StatusOK},
		{"over the cap", `{"delta":{"balance":1},"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		if w := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", c.body); w.Code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, w.Code, strings.TrimSpace(w.Body.String()), c.want)
		}
	}
	got := doJSON(t, s.handleEntity, "GET", "/entities/Account/A1", "")
	if want := `{"key":"Account/A1","fields":{"balance":1}}` + "\n"; got.Body.String() != want {
		t.Fatalf("after one accepted delta: %q, want %q", got.Body, want)
	}
}

// TestPostedOpOrderIsTheBodyOrder: the ops of a body used to come out of two
// map iterations, so the WAL bytes and the history text of one request
// differed from run to run.
func TestPostedOpOrderIsTheBodyOrder(t *testing.T) {
	s, _ := newTestServer(t, 0)
	var first string
	for i := 0; i < 50; i++ {
		path := fmt.Sprintf("/entities/Lead/L-%d", i)
		if w := doJSON(t, s.handleEntity, "POST", path, `{"set":{"status":"NEW","contact":"c","company":"k"}}`); w.Code != http.StatusOK {
			t.Fatalf("post %d: %d %s", i, w.Code, w.Body)
		}
		h, err := s.k().History(repro.Key{Type: "Lead", ID: fmt.Sprintf("L-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		trace := h.Trace()
		if len(trace) != 1 {
			t.Fatalf("history of %s: %v", path, trace)
		}
		_, order, _ := strings.Cut(trace[0], ": ")
		if i == 0 {
			first = order
			if !strings.HasPrefix(order, "set status") {
				t.Fatalf("op order %q does not start with the body's first field", order)
			}
		} else if order != first {
			t.Fatalf("post %d applied %q, post 0 applied %q", i, order, first)
		}
	}
}

// TestLoadScenarioRequestsAreServed drives every request shape the load
// harness sends through the handlers.
func TestLoadScenarioRequestsAreServed(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mux := s.routes()
	scenarios, err := loadgen.Scenarios("crm,banking,inventory,bookstore", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		for i := uint64(0); i < 400; i++ {
			req := sc.Request(i)
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(req.Method, req.Path, strings.NewReader(req.Body)))
			if w.Code != http.StatusOK && !(w.Code == http.StatusNotFound && req.Method == http.MethodGet) {
				t.Fatalf("%s request %d %s %s %s: %d %s", sc.Name(), i, req.Method, req.Path, req.Body, w.Code, w.Body)
			}
			if w.Code == http.StatusOK && !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s request %d: reply is not JSON: %q", sc.Name(), i, w.Body)
			}
		}
	}
}

// --- replies -------------------------------------------------------------------

// oracleState is the old stateResponse.
type oracleState struct {
	Key       string                 `json:"key"`
	Fields    map[string]interface{} `json:"fields"`
	Tentative bool                   `json:"tentative,omitempty"`
	Deleted   bool                   `json:"deleted,omitempty"`
}

func TestRepliesAreWhatEncodingJSONWrites(t *testing.T) {
	strs := []string{"", "plain", `q"b\s/`, "\b\f\n\r\t\x00\x01\x1f\x7f", "<script>&amp;</script>",
		"café 世界 😀", "line\u2028sep\u2029", "bad \xff\xc3 utf8", "\xed\xa0\x80"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 99.5, 1e20, 1e21, -1e21, 1.234e25, 1e-6, 1e-7, 9.87e-9,
		1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, float64(1 << 53)}
	fields := entity.Fields{
		"nil": nil, "yes": true, "no": false,
		"int": int64(42), "min": int64(math.MinInt64), "max": int64(math.MaxInt64),
		"row":   entity.Fields{"z": int64(1), "a": "x", "m": map[string]interface{}{"k2": 2.5, "k1": nil}},
		"list":  []interface{}{int64(1), "two", 3.5, nil, true, []interface{}{}, map[string]interface{}{}},
		"none":  []interface{}(nil),
		"empty": map[string]interface{}(nil),
	}
	for i, s := range strs {
		fields[fmt.Sprintf("s%d", i)] = s
		fields[s] = int64(i) // as a field name too
	}
	for i, f := range floats {
		fields[fmt.Sprintf("f%d", i)] = f
	}
	e := getEdgeBuf()
	defer putEdgeBuf(e)
	for _, st := range []*entity.State{
		{Key: repro.Key{Type: "Order", ID: "O-1"}, Fields: fields},
		{Key: repro.Key{Type: "T<\"", ID: "id/é\n"}, Fields: entity.Fields{"a": int64(1)}, Tentative: true},
		{Key: repro.Key{Type: "Order", ID: "O-2"}, Fields: entity.Fields{}, Deleted: true, Tentative: true},
		{Key: repro.Key{Type: "Order", ID: "O-3"}},
	} {
		got, err := e.stateReply(st.Key, st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oracleState{Key: st.Key.String(), Fields: st.Fields, Tentative: st.Tentative, Deleted: st.Deleted})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("state reply\n got %s\nwant %s", got, want)
		}
		// And it reads back as the fields it was built from.
		var back, ref struct {
			Fields map[string]interface{} `json:"fields"`
		}
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("reply reads back as %v, want %v", back.Fields, ref.Fields)
		}
		if len(e.keys) != 0 {
			t.Fatalf("encoder left %d field names on its stack", len(e.keys))
		}
	}

	for _, lines := range [][]string{{}, nil, strs, {"#1 1.0@n by n: set a=1; delta b+2"}} {
		want, _ := json.Marshal(append([]string{}, lines...))
		if got := e.historyReply(lines); string(got) != string(want)+"\n" {
			t.Fatalf("history reply\n got %s\nwant %s", got, want)
		}
	}
	for _, id := range strs {
		want, _ := json.Marshal(map[string]interface{}{"txn": id, "warnings": 3})
		if got := e.updateReply(id, 3); string(got) != string(want)+"\n" {
			t.Fatalf("update reply\n got %s\nwant %s", got, want)
		}
	}
	want, _ := json.Marshal(map[string]string{"status": "accepted"})
	if string(acceptedReply) != string(want)+"\n" {
		t.Fatalf("accepted reply %q, want %q", acceptedReply, want)
	}

	// What JSON cannot say is an error, not a broken body.
	for _, bad := range []interface{}{math.NaN(), math.Inf(1), math.Inf(-1), struct{}{}, 7} {
		if _, err := e.stateReply(repro.Key{Type: "T", ID: "1"}, &entity.State{Fields: entity.Fields{"x": bad}}); err == nil {
			t.Fatalf("value %v (%T) encoded without an error", bad, bad)
		}
	}
}

// TestUnencodableStateIs500: a balance driven to +Inf by deltas cannot be
// written as JSON; the reply says so instead of a 200 with half a body.
func TestUnencodableStateIs500(t *testing.T) {
	s, _ := newTestServer(t, 0)
	for i := 0; i < 2; i++ {
		if w := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", `{"delta":{"balance":1e308}}`); w.Code != http.StatusOK {
			t.Fatalf("delta %d: %d %s", i, w.Code, w.Body)
		}
	}
	if w := doJSON(t, s.handleEntity, "GET", "/entities/Account/A1", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("GET of an infinite balance = %d %q, want 500", w.Code, w.Body)
	}
}

// TestPooledBuffersStayWithTheirRequest: eight clients post and read through
// the data port's routes at once, handed requests by httptest's recorder and,
// each on a connection of its own, by the connection loop; a reply assembled
// in a buffer another request is still using would carry that request's key
// or value. Run with -race.
func TestPooledBuffersStayWithTheirRequest(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mux := s.routes()
	addr, _ := startLoop(t, mux, nil)
	type doer func(method, path, body string) (int, []byte)
	recorder := func() (doer, func()) {
		return func(method, path, body string) (int, []byte) {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
			return w.Code, w.Body.Bytes()
		}, func() {}
	}
	loop := func() (doer, func()) {
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		return func(method, path, body string) (int, []byte) {
			req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
			if err != nil {
				return 0, []byte(err.Error())
			}
			resp, err := hc.Do(req)
			if err != nil {
				return 0, []byte(err.Error())
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, b
		}, hc.CloseIdleConnections
	}
	for _, via := range []struct {
		name   string
		client func() (doer, func())
	}{{"recorder", recorder}, {"loop", loop}} {
		t.Run(via.name, func(t *testing.T) {
			const clients, rounds = 8, 60
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					do, done := via.client()
					defer done()
					id := fmt.Sprintf("%s-client-%d", via.name, c)
					path, hist := "/entities/Lead/"+id, "/history/Lead/"+id
					for i := 0; i < rounds; i++ {
						mark := fmt.Sprintf("client-%d-round-%d-%s", c, i, strings.Repeat("x", (c*37+i)%300))
						code, body := do("POST", path, `{"set":{"contact":"`+mark+`"},"describe":"`+mark+`"}`)
						var ack struct {
							Txn      string `json:"txn"`
							Warnings *int   `json:"warnings"`
						}
						if err := json.Unmarshal(body, &ack); code != http.StatusOK || err != nil || ack.Txn == "" || ack.Warnings == nil {
							t.Errorf("client %d round %d: POST = %d %q (%v)", c, i, code, body, err)
							return
						}
						_, body = do("GET", path, "")
						if want := fmt.Sprintf(`{"key":"Lead/%s","fields":{"contact":%q}}`, id, mark) + "\n"; string(body) != want {
							t.Errorf("client %d round %d: GET = %q, want %q", c, i, body, want)
							return
						}
						_, body = do("GET", hist, "")
						var lines []string
						if err := json.Unmarshal(body, &lines); err != nil || len(lines) != i+1 || !strings.HasSuffix(lines[i], ": "+mark) {
							t.Errorf("client %d round %d: history = %q (%v)", c, i, body, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// --- what the edge costs ---------------------------------------------------------

// discardWriter is a ResponseWriter that costs nothing itself, so a count of
// allocations around a handler call is the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// replay is a request whose body can be rewound, so a measured loop builds
// neither requests nor readers.
type replay struct {
	req  *http.Request
	body *strings.Reader
	text string
}

func newReplay(method, path, body string) *replay {
	r := &replay{body: strings.NewReader(body), text: body}
	r.req = httptest.NewRequest(method, path, nil)
	r.req.Body = io.NopCloser(r.body)
	return r
}

func (r *replay) rewind() *http.Request {
	r.body.Reset(r.text)
	return r.req
}

// edgeWorkload is one of the four data-path requests over a ring of warmed
// keys, so no iteration creates an entity: the request through its handler,
// and the kernel call inside it on its own.
type edgeWorkload struct {
	name    string
	handler http.HandlerFunc
	reqs    []*replay
	kernel  func(i int)
}

func edgeWorkloads(tb testing.TB, s *server) []edgeWorkload {
	const keys = 64
	const deltaBody = `{"delta":{"balance":2.5},"describe":"banking op 17"}`
	const setBody = `{"set":{"contact":"contact-12","company":"company-5","status":"NEW"}}`
	k := s.k()
	ops := func(body string) []entity.Op {
		ops, err := decodeWithCodec([]byte(body))
		if err != nil {
			tb.Fatal(err)
		}
		return ops
	}
	deltaOps, setOps := ops(deltaBody), ops(setBody)
	acctKeys, leadKeys, histKeys := make([]repro.Key, keys), make([]repro.Key, keys), make([]repro.Key, keys)
	work := []edgeWorkload{
		{name: "POST-delta", handler: s.handleEntity, kernel: func(i int) { _, _ = k.Update(acctKeys[i%keys], deltaOps...) }},
		{name: "POST-set-3-fields", handler: s.handleEntity, kernel: func(i int) { _, _ = k.Update(leadKeys[i%keys], setOps...) }},
		{name: "GET", handler: s.handleEntity, kernel: func(i int) { _, _ = k.Read(leadKeys[i%keys]) }},
		{name: "GET-history", handler: s.handleHistory, kernel: func(i int) {
			if h, err := k.History(histKeys[i%keys]); err == nil {
				_ = h.Trace()
			}
		}},
	}
	// The histories read are eight versions long and nothing measured writes
	// to them, so a history request costs the same however long a POST
	// sub-benchmark ran before it.
	for i := 0; i < keys; i++ {
		acctKeys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("A-%d", i)}
		leadKeys[i] = repro.Key{Type: "Lead", ID: fmt.Sprintf("L-%d", i)}
		histKeys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("H-%d", i)}
		work[0].reqs = append(work[0].reqs, newReplay("POST", "/entities/"+acctKeys[i].String(), deltaBody))
		work[1].reqs = append(work[1].reqs, newReplay("POST", "/entities/"+leadKeys[i].String(), setBody))
		work[2].reqs = append(work[2].reqs, newReplay("GET", "/entities/"+leadKeys[i].String(), ""))
		work[3].reqs = append(work[3].reqs, newReplay("GET", "/history/"+histKeys[i].String(), ""))
		for v := 0; v < 8; v++ {
			if _, err := k.Update(histKeys[i], deltaOps...); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, wl := range work[:2] {
		for round := 0; round < 4; round++ {
			for _, r := range wl.reqs {
				w := &discardWriter{h: http.Header{}}
				if wl.handler(w, r.rewind()); w.status != http.StatusOK {
					tb.Fatalf("warming %s: status %d", wl.name, w.status)
				}
			}
		}
	}
	return work
}

// newMemServer is soupsd as it runs without -data-dir: no storage backend at
// all (newTestServer's fault backend keeps every record, which would be
// most of what a POST costs here).
func newMemServer(tb testing.TB) *server {
	k, err := repro.Bootstrap(repro.Options{Node: "edge", Units: 1}, repro.StandardTypes()...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(k.Close)
	s := &server{}
	s.kernel.Store(k)
	return s
}

// BenchmarkEdgeEntity is one data-path request through its handler over an
// in-memory kernel: decode, kernel call, encode, with httptest's recorder as
// the client (make bench-edge).
func BenchmarkEdgeEntity(b *testing.B) {
	s := newMemServer(b)
	for _, wl := range edgeWorkloads(b, s) {
		b.Run(wl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				if wl.handler(w, wl.reqs[i%len(wl.reqs)].rewind()); w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}

// edgeAllocBudget is the handler's own allocations per request — those of
// the whole call less those of the kernel call inside it, with a writer that
// costs nothing: measured + 1. A POST still pays for what the log keeps (the
// op slice, a string per field name and string value, a box per number); a
// GET builds its reply in the pooled buffer and pays nothing.
var edgeAllocBudget = map[string]float64{
	"POST-delta":        4,
	"POST-set-3-fields": 11,
	"GET":               1,
	"GET-history":       1,
}

// edgeAllocRuns is how many requests each side of TestEdgeAllocationBudget
// is counted over.
const edgeAllocRuns = 4096

// allocsPer returns fn's heap allocations per call, counted exactly over n
// calls with i = 0..n-1 after one warm-up call. testing.AllocsPerRun
// truncates its average to an integer, so the difference of two of them
// tips by one whenever the fractions straddle a whole number.
func allocsPer(n int, fn func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestEdgeAllocationBudget holds the handler's own allocations — the whole
// call's less those of the kernel call inside it, both walked over the same
// request indices — to edgeAllocBudget. A -race build only logs them: its
// sync.Pool drops one Put in four at random (raceEnabled), so the pooled
// buffers are reallocated by chance and no budget holds there.
func TestEdgeAllocationBudget(t *testing.T) {
	s := newMemServer(t)
	for _, wl := range edgeWorkloads(t, s) {
		w := &discardWriter{h: http.Header{}}
		whole := allocsPer(edgeAllocRuns, func(i int) {
			clear(w.h)
			wl.handler(w, wl.reqs[i%len(wl.reqs)].rewind())
		})
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", wl.name, w.status)
		}
		inside := allocsPer(edgeAllocRuns, wl.kernel)
		own, budget := whole-inside, edgeAllocBudget[wl.name]
		t.Logf("%s: %.3f allocs/request, %.3f of them in the kernel call: the edge's own %.3f (budget %.0f, race %v)", wl.name, whole, inside, own, budget, raceEnabled)
		if own > budget && !raceEnabled {
			t.Errorf("%s: the edge allocates %.3f times a request, budget %.0f", wl.name, own, budget)
		}
	}
}

// --- the debug listener ----------------------------------------------------------

// TestPprofIsOnlyOnTheDebugMux: net/http/pprof registers itself on
// http.DefaultServeMux, which -debug-addr serves; the data port's mux is
// built by routes and must not know the path.
func TestPprofIsOnlyOnTheDebugMux(t *testing.T) {
	s, _ := newTestServer(t, 0)
	data := httptest.NewServer(s.routes())
	defer data.Close()
	debug := httptest.NewServer(http.DefaultServeMux)
	defer debug.Close()
	for _, c := range []struct {
		name, url string
		want      int
	}{
		{"data port", data.URL + "/debug/pprof/", http.StatusNotFound},
		{"data port cmdline", data.URL + "/debug/pprof/cmdline", http.StatusNotFound},
		{"debug port", debug.URL + "/debug/pprof/", http.StatusOK},
		{"data port still serves data", data.URL + "/healthz", http.StatusOK},
	} {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: GET %s = %d, want %d", c.name, c.url, resp.StatusCode, c.want)
		}
	}
}

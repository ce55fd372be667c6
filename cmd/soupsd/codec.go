package main

// The data path's codec: POST /entities bodies are scanned straight into
// entity ops and the replies of /entities, /history and /events are appended
// as compact JSON, both through one pooled buffer per request. Nothing here
// reflects; encoding/json serves only the cold admin routes (main.go's
// writeJSON) and, in codec_test.go, as the oracle this file is fuzzed against.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro"
	"repro/internal/entity"
)

const (
	// maxBodyBytes caps a data-path request body; a larger one is a 413.
	maxBodyBytes = 1 << 20
	// maxPooledBytes keeps one oversized request from parking its buffer in
	// the pool for ever.
	maxPooledBytes = 64 << 10
	// maxNesting is encoding/json's nesting limit, kept so the two agree on
	// what a deeply nested value under an unknown key is.
	maxNesting = 10000
	// linearDedupe is how many ops a duplicate field is looked up among by
	// scanning them; past it the scanner keeps an index, so a body of 100k
	// fields costs 100k lookups, not their square.
	linearDedupe = 8
)

// jsonContentType is the one header value every data-path reply shares;
// net/http and its recorders copy header values, never write through them.
var jsonContentType = []string{"application/json"}

// acceptedReply is the whole body of a 202 from POST /events.
var acceptedReply = []byte(`{"status":"accepted"}` + "\n")

// edgeBuf is one request's scratch: b holds the request body while it is
// scanned and then the reply while it is built — every string an op keeps is
// copied out of b before that. It returns to the pool when the handler does.
//
// The ops a request decodes are NOT pooled: the store shares an op slice into
// its log (Txn.Update clamps and keeps it), so decodeOps hands out a fresh
// exact-size slice and ops is only where it is assembled.
type edgeBuf struct {
	b    []byte
	text []byte      // a string literal with its escapes resolved
	keys []string    // field names of the maps being encoded, sorted per map
	ops  []entity.Op // cleared before the buffer is pooled
	seen map[opID]int
	i    int // scan offset into b
}

type opID struct {
	kind  entity.OpKind
	field string
}

var edgePool = sync.Pool{New: func() any { return &edgeBuf{b: make([]byte, 0, 1024)} }}

func getEdgeBuf() *edgeBuf { return edgePool.Get().(*edgeBuf) }

func putEdgeBuf(e *edgeBuf) {
	if cap(e.b) > maxPooledBytes || cap(e.text) > maxPooledBytes {
		return
	}
	edgePool.Put(e)
}

// sendJSON answers status with an already encoded JSON body.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that went away is not the handler's error
}

// readBody reads the request body into e.b, refusing more than maxBodyBytes.
func (e *edgeBuf) readBody(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := e.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			e.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// --- request: {"set":{"f":v}, "delta":{"f":n}, "describe":"..."} -----------

var errNoOps = errors.New("no operations")

// decodeOps scans the body in e.b into operations, in body order. It keeps
// what encoding/json made of the same body: unknown keys are skipped (their
// values still have to be JSON), keys match case-insensitively, a repeated
// key or field means its last value, a null set or delta forgets the ones
// before it, integral set numbers become int64. It is stricter in three
// places: a set value must be a scalar, nothing but whitespace may follow
// the object, and the body is capped (readBody).
func (e *edgeBuf) decodeOps() ([]entity.Op, error) {
	e.i = 0
	defer e.resetOps()
	e.space()
	if e.peek() != '{' {
		return nil, e.unexpected()
	}
	describe := ""
	for first := true; ; first = false {
		key, done, err := e.member(first)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		switch {
		case isKey(key, "set"):
			err = e.fields(entity.OpSet)
		case isKey(key, "delta"):
			err = e.fields(entity.OpDelta)
		case isKey(key, "describe"):
			switch e.peek() {
			case '"':
				var s []byte
				if s, err = e.str(); err == nil {
					describe = string(s)
				}
			case 'n':
				err = e.literal("null")
			default:
				err = e.unexpected()
			}
		default:
			err = e.skip(2)
		}
		if err != nil {
			return nil, err
		}
	}
	if e.space(); e.i != len(e.b) {
		return nil, fmt.Errorf("trailing data at offset %d", e.i)
	}
	if len(e.ops) == 0 {
		return nil, errNoOps
	}
	ops := make([]entity.Op, len(e.ops))
	copy(ops, e.ops)
	if describe != "" {
		for i := range ops {
			ops[i].Describe = describe
		}
	}
	return ops, nil
}

func (e *edgeBuf) resetOps() {
	clear(e.ops)
	e.ops = e.ops[:0]
	e.seen = nil
}

// isKey matches a top-level key the way encoding/json matches a struct field.
func isKey(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// fields scans the object (or null) after "set" or "delta" into ops of kind.
func (e *edgeBuf) fields(kind entity.OpKind) error {
	switch e.peek() {
	case 'n':
		// encoding/json sets the map to nil: the kind's earlier ops are gone.
		kept := e.ops[:0]
		for _, op := range e.ops {
			if op.Kind != kind {
				kept = append(kept, op)
			}
		}
		clear(e.ops[len(kept):])
		e.ops, e.seen = kept, nil
		return e.literal("null")
	case '{':
	default:
		return e.unexpected()
	}
	for first := true; ; first = false {
		key, done, err := e.member(first)
		if err != nil || done {
			return err
		}
		op := entity.Op{Kind: kind, Field: string(key)}
		if kind == entity.OpSet {
			op.Value, err = e.scalar()
		} else if e.peek() == 'n' {
			err = e.literal("null") // encoding/json leaves the zero delta
		} else {
			op.Delta, err = e.number()
		}
		if err != nil {
			return err
		}
		e.put(op)
	}
}

// put records op, over an earlier op of the same kind on the same field.
func (e *edgeBuf) put(op entity.Op) {
	if len(e.ops) < linearDedupe {
		for i := range e.ops {
			if e.ops[i].Kind == op.Kind && e.ops[i].Field == op.Field {
				e.ops[i] = op
				return
			}
		}
		e.ops = append(e.ops, op)
		return
	}
	id := opID{op.Kind, op.Field}
	if e.seen == nil {
		e.seen = make(map[opID]int, 2*len(e.ops))
		for i := range e.ops {
			e.seen[opID{e.ops[i].Kind, e.ops[i].Field}] = i
		}
	}
	if i, dup := e.seen[id]; dup {
		e.ops[i] = op
		return
	}
	e.seen[id] = len(e.ops)
	e.ops = append(e.ops, op)
}

// member steps to the next member of the object at e.i — the opening brace
// when first, else just past a member's value — and returns its key with e.i
// on the first byte of its value; done reports the closing brace instead.
// The key is only good until the next str call.
func (e *edgeBuf) member(first bool) (key []byte, done bool, err error) {
	if first {
		e.i++ // '{'
	}
	e.space()
	switch c := e.peek(); {
	case c == '}':
		e.i++
		return nil, true, nil
	case first:
	case c == ',':
		e.i++
		e.space()
	default:
		return nil, false, e.unexpected()
	}
	if e.peek() != '"' {
		return nil, false, e.unexpected()
	}
	if key, err = e.str(); err != nil {
		return nil, false, err
	}
	if e.space(); e.peek() != ':' {
		return nil, false, e.unexpected()
	}
	e.i++
	e.space()
	return key, false, nil
}

// scalar scans one set value. Integral numbers that fit become int64, so Int
// fields accept them.
func (e *edgeBuf) scalar() (interface{}, error) {
	switch e.peek() {
	case '"':
		s, err := e.str()
		if err != nil {
			return nil, err
		}
		return string(s), nil
	case 't':
		return true, e.literal("true")
	case 'f':
		return false, e.literal("false")
	case 'n':
		return nil, e.literal("null")
	case '{', '[':
		return nil, fmt.Errorf("set value at offset %d is not a scalar", e.i)
	}
	f, err := e.number()
	if err != nil {
		return nil, err
	}
	if f >= -1<<63 && f < 1<<63 && f == float64(int64(f)) {
		return int64(f), nil
	}
	return f, nil
}

// number scans and converts one JSON number.
func (e *edgeBuf) number() (float64, error) {
	start := e.i
	if err := e.numberSyntax(); err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(e.b[start:e.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d does not fit a float64", e.b[start:e.i], start)
	}
	return f, nil
}

// numberSyntax steps over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (e *edgeBuf) numberSyntax() error {
	if e.peek() == '-' {
		e.i++
	}
	switch c := e.peek(); {
	case c == '0':
		e.i++
	case '1' <= c && c <= '9':
		e.digits()
	default:
		return e.unexpected()
	}
	if e.peek() == '.' {
		e.i++
		if !e.digits() {
			return e.unexpected()
		}
	}
	if c := e.peek(); c == 'e' || c == 'E' {
		e.i++
		if c := e.peek(); c == '+' || c == '-' {
			e.i++
		}
		if !e.digits() {
			return e.unexpected()
		}
	}
	return nil
}

func (e *edgeBuf) digits() bool {
	start := e.i
	for e.i < len(e.b) && '0' <= e.b[e.i] && e.b[e.i] <= '9' {
		e.i++
	}
	return e.i > start
}

// skip steps over one value of any kind, checking only that it is JSON.
// depth counts the containers it sits in, the request object included.
func (e *edgeBuf) skip(depth int) error {
	c := e.peek()
	if (c == '{' || c == '[') && depth > maxNesting {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxNesting, e.i)
	}
	switch c {
	case '"':
		_, err := e.str()
		return err
	case 't':
		return e.literal("true")
	case 'f':
		return e.literal("false")
	case 'n':
		return e.literal("null")
	case '{':
		for first := true; ; first = false {
			_, done, err := e.member(first)
			if err != nil || done {
				return err
			}
			if err := e.skip(depth + 1); err != nil {
				return err
			}
		}
	case '[':
		e.i++
		if e.space(); e.peek() == ']' {
			e.i++
			return nil
		}
		for {
			if err := e.skip(depth + 1); err != nil {
				return err
			}
			e.space()
			switch e.peek() {
			case ',':
				e.i++
				e.space()
			case ']':
				e.i++
				return nil
			default:
				return e.unexpected()
			}
		}
	default:
		return e.numberSyntax()
	}
}

// str scans the string literal whose opening quote is at e.i and returns its
// content, escapes resolved and invalid UTF-8 replaced by U+FFFD as
// encoding/json does: a slice of the body when nothing needed rewriting, of
// e.text otherwise, in both cases only good until the next call.
func (e *edgeBuf) str() ([]byte, error) {
	b := e.b
	start := e.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			e.i = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	out := append(e.text[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			e.i, e.text = i+1, out
			return out, nil
		case c < ' ':
			e.i = i
			return nil, e.unexpected()
		case c == '\\':
			i++
			if i >= len(b) {
				e.i = i
				return nil, e.unexpected()
			}
			switch b[i] {
			case '"', '\\', '/':
				out = append(out, b[i])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+1:])
				if r < 0 {
					e.i = i
					return nil, e.unexpected()
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// Only a valid low half right behind is consumed with it.
					if i+2 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(b[i+3:])); dec != utf8.RuneError {
							i += 6
							out = utf8.AppendRune(out, dec)
							break
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				e.i = i
				return nil, e.unexpected()
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	e.i, e.text = len(b), out
	return nil, e.unexpected()
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func (e *edgeBuf) literal(word string) error {
	if len(e.b)-e.i < len(word) || string(e.b[e.i:e.i+len(word)]) != word {
		return e.unexpected()
	}
	e.i += len(word)
	return nil
}

// peek returns the byte at e.i, or 0 (never valid outside a string) at the end.
func (e *edgeBuf) peek() byte {
	if e.i < len(e.b) {
		return e.b[e.i]
	}
	return 0
}

func (e *edgeBuf) space() {
	for e.i < len(e.b) {
		switch e.b[e.i] {
		case ' ', '\t', '\r', '\n':
			e.i++
		default:
			return
		}
	}
}

func (e *edgeBuf) unexpected() error {
	if e.i >= len(e.b) {
		return errors.New("unexpected end of body")
	}
	return fmt.Errorf("unexpected %q at offset %d", e.b[e.i], e.i)
}

// --- replies -----------------------------------------------------------------
//
// Byte for byte what encoding/json's Marshal writes (map keys sorted, its
// float format, its string escapes), plus one newline.

// updateReply builds {"txn":"...","warnings":N} in e.b.
func (e *edgeBuf) updateReply(txnID string, warnings int) []byte {
	b := append(e.b[:0], `{"txn":`...)
	b = appendString(b, txnID)
	b = append(b, `,"warnings":`...)
	b = strconv.AppendInt(b, int64(warnings), 10)
	e.b = append(b, '}', '\n')
	return e.b
}

// stateReply builds {"key":"T/ID","fields":{...}[,"tentative":true][,"deleted":true]} in e.b.
func (e *edgeBuf) stateReply(key repro.Key, st *entity.State) ([]byte, error) {
	b := append(e.b[:0], `{"key":"`...)
	b = appendEscaped(b, key.Type)
	b = append(b, '/')
	b = appendEscaped(b, key.ID)
	b = append(b, `","fields":`...)
	b, err := e.appendMap(b, st.Fields)
	if st.Tentative {
		b = append(b, `,"tentative":true`...)
	}
	if st.Deleted {
		b = append(b, `,"deleted":true`...)
	}
	e.b = append(b, '}', '\n')
	return e.b, err
}

// historyReply builds the trace lines as an array of strings in e.b.
func (e *edgeBuf) historyReply(lines []string) []byte {
	b := append(e.b[:0], '[')
	for i, line := range lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, line)
	}
	e.b = append(b, ']', '\n')
	return e.b
}

func (e *edgeBuf) appendMap(b []byte, m map[string]interface{}) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	// Nested maps stack their names behind this one's; index, don't range,
	// because a nested append may move e.keys.
	base := len(e.keys)
	for name := range m {
		e.keys = append(e.keys, name)
	}
	end := len(e.keys)
	slices.Sort(e.keys[base:end])
	b = append(b, '{')
	var err error
	for i := base; i < end && err == nil; i++ {
		if i > base {
			b = append(b, ',')
		}
		name := e.keys[i]
		b = appendString(b, name)
		b = append(b, ':')
		b, err = e.appendValue(b, m[name])
	}
	clear(e.keys[base:end])
	e.keys = e.keys[:base]
	return append(b, '}'), err
}

// appendValue covers every kind entity.SanitizeOps lets into a state.
func (e *edgeBuf) appendValue(b []byte, v interface{}) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case string:
		return appendString(b, x), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case float64:
		return appendFloat(b, x)
	case entity.Fields:
		return e.appendMap(b, x)
	case map[string]interface{}:
		return e.appendMap(b, x)
	case []interface{}:
		if x == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, elem := range x {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = e.appendValue(b, elem); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	default:
		return b, fmt.Errorf("unsupported value type %T", v)
	}
}

// appendFloat formats f as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21, its two-digit exponent trimmed.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string literal, escaping
// what encoding/json escapes: quote, backslash, controls, <, >, &, U+2028,
// U+2029, and invalid UTF-8 as \ufffd.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(b, s[start:i]...)
				b = append(b, `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(b, s[start:i]...)
				b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	return append(b, s[start:]...)
}

package main

// The data port's HTTP/1.1 server. Each accepted connection gets one
// goroutine, one bufio.Reader, one http.Request and one ResponseWriter, all
// reused request after request: a request head is parsed into the pair, the
// pair goes through the same http.Handler (routes) a net/http server would
// call, and the reply is appended to the connection's output buffer. That
// buffer goes out the moment the connection would have to wait for input, so
// N pipelined requests cost one write.
//
// Ownership: r and w belong to the connection. A handler must not keep
// either, nor r.Header, r.URL or r.Body, after it returns; the next request
// on the connection overwrites them. Strings it takes from them (the path,
// header values) are its own.
//
// What net/http did for these clients, it still does: keep-alive, HTTP/1.0
// close semantics, Content-Length and chunked request bodies (with their
// trailers), Expect: 100-continue, bounded draining of unread bodies, HEAD,
// Content-Type sniffing, chunked streaming of replies that outgrow the
// buffer, a Date per second, graceful shutdown. Request heads are parsed as
// http.ReadRequest and net/http's server parse them (conn_test.go fuzzes the
// two against each other) and refused with 400, 431 or 505 where they are,
// and in three more places on purpose: Content-Length beside
// Transfer-Encoding, obs-fold continuation lines, and the HTTP/2 preface.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeaderBytes caps a request line plus its header fields (net/http's
	// DefaultMaxHeaderBytes); past it the reply is a 431.
	maxHeaderBytes = 1 << 20
	// maxDrainBytes is how much of a body its handler left unread is read
	// and discarded to keep the connection; past it the connection closes.
	maxDrainBytes = 256 << 10
	// streamAfter is how much reply body is buffered before the head goes
	// out without a Content-Length and the body follows in chunks; it is
	// also the output buffer's flush mark while streaming.
	streamAfter = 64 << 10
	// lingerTime bounds how long a closing connection reads and discards
	// what the client still sends, so its reply is not lost to a reset.
	lingerTime = 500 * time.Millisecond
	// maxInterned bounds a connection's table of repeated header strings.
	maxInterned = 256
)

// chunkedTE is every chunked request's TransferEncoding; handlers only read it.
var chunkedTE = []string{"chunked"}

// dataServer serves one http.Handler on a listener.
type dataServer struct {
	handler http.Handler

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]bool // true while the connection waits for a request
	closing atomic.Bool    // set under mu; read without it by every reply
}

func newDataServer(h http.Handler) *dataServer {
	return &dataServer{handler: h, conns: map[*conn]bool{}}
}

// Serve accepts connections on ln until Shutdown, which makes it return
// http.ErrServerClosed.
func (s *dataServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// Out of file descriptors and the like: back off as net/http does.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("soupsd: accept: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = false
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown closes the listener and every idle connection, lets each request
// in flight finish (its reply says Connection: close), and returns once no
// connection is left or ctx is done.
func (s *dataServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return err
}

// closeIdle closes the connections waiting for a request and reports whether
// none is left.
func (s *dataServer) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c, idle := range s.conns {
		if idle {
			c.nc.Close()
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

// setIdle records whether c waits for a request; false means the server is
// shutting down and c must close instead.
func (s *dataServer) setIdle(c *conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.conns[c] = idle
	return true
}

func (s *dataServer) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one client connection and everything reused across its requests.
type conn struct {
	srv    *dataServer
	nc     net.Conn
	br     *bufio.Reader
	out    []byte // replies not yet written
	werr   error  // the first write error; nothing more is sent after it
	remote string

	req    http.Request
	url    url.URL
	hdr    http.Header
	vals   []string          // backing of single-valued header slices
	intern map[string]string // header keys and values seen before
	line   []byte            // a line longer than br's buffer, assembled
	body   reqBody
	w      reply

	lastPOST bool
	linger   bool // input may be left unread when the connection closes
	dateSec  int64
	date     []byte
	keys     []string
}

func newConn(s *dataServer, nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc, remote: nc.RemoteAddr().String(), hdr: http.Header{}, intern: map[string]string{}}
	c.br = bufio.NewReader(connReader{c})
	c.body.c = c
	c.w = reply{c: c, hdr: http.Header{}}
	return c
}

// connReader is br's source: whatever replies are pending go out before the
// connection waits for more input.
type connReader struct{ c *conn }

func (r connReader) Read(p []byte) (int, error) {
	if !r.c.flush() {
		return 0, r.c.werr
	}
	return r.c.nc.Read(p)
}

func (c *conn) flush() bool {
	if c.werr == nil && len(c.out) > 0 {
		_, c.werr = c.nc.Write(c.out)
	}
	c.out = c.out[:0]
	if cap(c.out) > 2*streamAfter {
		c.out = nil
	}
	return c.werr == nil
}

func (c *conn) serve() {
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			log.Printf("soupsd: panic serving %s: %v\n%s", c.remote, p, debug.Stack())
		}
		c.close()
	}()
	for {
		if c.br.Buffered() == 0 {
			if !c.flush() || !c.srv.setIdle(c, true) {
				return
			}
			if _, err := c.br.Peek(1); err != nil {
				return
			}
			if !c.srv.setIdle(c, false) {
				return
			}
		}
		if !c.serveOne() {
			return
		}
	}
}

// close sends what is pending and closes the connection; if input may be
// left unread it first half-closes and discards for a while, so the kernel
// does not answer that input with a reset that destroys the reply.
func (c *conn) close() {
	c.flush()
	c.srv.forget(c)
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && c.linger && c.werr == nil {
		_ = cw.CloseWrite()
		_ = c.nc.SetReadDeadline(time.Now().Add(lingerTime))
		_, _ = io.Copy(io.Discard, c.nc)
	}
	c.nc.Close()
}

// serveOne reads, dispatches and answers one request; false ends the
// connection.
func (c *conn) serveOne() bool {
	status, err := c.readRequest()
	if err != nil {
		if status != 0 {
			c.refuse(status, err)
		}
		return false
	}
	w := &c.w
	clear(w.hdr)
	w.status, w.streaming, w.chunked = 0, false, false
	w.head = c.req.Method == http.MethodHead
	w.closeAfter = c.req.Close
	if status == http.StatusExpectationFailed {
		w.closeAfter = true
		w.WriteHeader(status)
	} else {
		c.srv.handler.ServeHTTP(w, &c.req)
	}
	c.finish()
	c.lastPOST = c.req.Method == http.MethodPost
	return !w.closeAfter && c.werr == nil
}

// refuse answers a request head that cannot be served and marks the
// connection for closing.
func (c *conn) refuse(status int, err error) {
	msg := fmt.Sprintf("%d %s: %v", status, http.StatusText(status), err)
	c.out = append(c.out, "HTTP/1.1 "...)
	c.out = strconv.AppendInt(c.out, int64(status), 10)
	c.out = append(c.out, ' ')
	c.out = append(c.out, http.StatusText(status)...)
	c.out = append(c.out, "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(msg)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, msg...)
	c.linger = true
}

// --- request heads --------------------------------------------------------

var (
	errHeadTooLarge = errors.New("request head larger than 1 MiB")
	errObsFold      = errors.New("obsolete line folding in a header")
	errCLAndTE      = errors.New("both Content-Length and Transfer-Encoding")
)

// readRequest parses the next request head into c.req. A non-zero status
// with the error is the reply the head deserves; a zero one means the
// connection broke or ended, and nothing is answered. 417 comes with a nil
// error: the request is read, its handler is not run.
func (c *conn) readRequest() (status int, err error) {
	budget := maxHeaderBytes
	if c.lastPOST {
		// Some clients follow a POST body with a stray CRLF (net/http's
		// tolerance, RFC 7230 section 3.5).
		peek, _ := c.br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		_, _ = c.br.Discard(n)
	}
	line, err := c.readLine(&budget)
	if err != nil {
		return c.headErr(err, false)
	}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 {
		return http.StatusBadRequest, fmt.Errorf("malformed request line %q", line)
	}
	if len(method) == 0 || !inSet(method, &tokenByte) {
		return http.StatusBadRequest, fmt.Errorf("invalid method %q", method)
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return http.StatusBadRequest, fmt.Errorf("malformed HTTP version %q", proto)
	}
	c.req = http.Request{
		Method:     internMethod(method),
		URL:        &c.url,
		Proto:      internProto(proto),
		ProtoMajor: major,
		ProtoMinor: minor,
		Header:     c.hdr,
		Body:       http.NoBody,
		RemoteAddr: c.remote,
		RequestURI: string(target),
	}
	if err := c.parseTarget(); err != nil {
		return http.StatusBadRequest, err
	}

	clear(c.hdr)
	clear(c.vals)
	c.vals = c.vals[:0]
	for {
		line, err := c.readLine(&budget)
		if err != nil {
			return c.headErr(err, true)
		}
		if len(line) == 0 {
			break
		}
		key, val, err := c.headerField(line)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if vv, ok := c.hdr[key]; ok {
			c.hdr[key] = append(vv, val)
		} else {
			n := len(c.vals)
			c.vals = append(c.vals, val)
			c.hdr[key] = c.vals[n : n+1 : n+1]
		}
	}
	return c.framing()
}

// headErr maps a failure to read the head onto what is answered: nothing if
// the client went away between requests or the connection broke, 431 past
// the cap, 400 for a head cut short.
func (c *conn) headErr(err error, started bool) (int, error) {
	switch {
	case errors.Is(err, errHeadTooLarge):
		return http.StatusRequestHeaderFieldsTooLarge, err
	case started && errors.Is(err, io.EOF):
		return http.StatusBadRequest, io.ErrUnexpectedEOF
	}
	return 0, err
}

// readLine returns the next line without its "\n" or "\r\n", good until the
// next read, charging it to the head's budget.
func (c *conn) readLine(budget *int) ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.line = append(c.line[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(c.line) > *budget {
				return nil, errHeadTooLarge
			}
			line, err = c.br.ReadSlice('\n')
			c.line = append(c.line, line...)
		}
		line = c.line
	}
	if len(line) > *budget {
		return nil, errHeadTooLarge
	}
	if err != nil {
		return nil, err
	}
	*budget -= len(line)
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseTarget fills c.url from c.req.RequestURI as url.ParseRequestURI
// would: an origin-form path of plain characters directly, anything else
// through url.ParseRequestURI itself.
func (c *conn) parseTarget() error {
	raw := c.req.RequestURI
	if path, query, hasQuery := strings.Cut(raw, "?"); len(path) > 0 && path[0] == '/' && inSet(path, &pathByte) && !hasCTL(query) {
		c.url = url.URL{Path: path, RawQuery: query, ForceQuery: hasQuery && query == ""}
		return nil
	}
	// CONNECT names an authority, not a path (http.ReadRequest's rule).
	authority := c.req.Method == http.MethodConnect && (raw == "" || raw[0] != '/')
	if authority {
		raw = "http://" + raw
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return err
	}
	if authority {
		u.Scheme = ""
	}
	c.url = *u
	return nil
}

// headerField splits a header line into its canonical key and its value,
// both interned.
func (c *conn) headerField(line []byte) (key, val string, err error) {
	if line[0] == ' ' || line[0] == '\t' {
		return "", "", errObsFold
	}
	k, v, ok := bytes.Cut(line, []byte(":"))
	if !ok || len(k) == 0 || !inSet(k, &tokenByte) {
		return "", "", fmt.Errorf("malformed header line %q", line)
	}
	v = bytes.Trim(v, " \t")
	for _, b := range v {
		if (b < ' ' && b != '\t') || b == 0x7f {
			return "", "", fmt.Errorf("malformed header line %q", line)
		}
	}
	upper := true
	for i, b := range k {
		if upper && 'a' <= b && b <= 'z' {
			k[i] = b - ('a' - 'A')
		} else if !upper && 'A' <= b && b <= 'Z' {
			k[i] = b + ('a' - 'A')
		}
		upper = b == '-'
	}
	return c.internBytes(k), c.internBytes(v), nil
}

// internBytes returns b as a string, the same one as last time for a short
// string this connection has sent before.
func (c *conn) internBytes(b []byte) string {
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= 64 {
		if len(c.intern) >= maxInterned {
			clear(c.intern)
		}
		c.intern[s] = s
	}
	return s
}

// framing applies the header rules net/http applies after the head is read:
// Host, Connection, Transfer-Encoding, Content-Length, Trailer, Expect.
func (c *conn) framing() (int, error) {
	r, h := &c.req, c.hdr
	hosts, haveHost := h["Host"]
	if len(hosts) > 1 {
		return http.StatusBadRequest, errors.New("too many Host headers")
	}
	r.Host = c.url.Host
	if r.Host == "" && haveHost {
		r.Host = hosts[0]
	}
	r.Close = wantsClose(r.ProtoMinor, h["Connection"])

	te, haveTE := h["Transfer-Encoding"]
	delete(h, "Transfer-Encoding")
	chunked := false
	if haveTE && r.ProtoAtLeast(1, 1) {
		if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
			return http.StatusBadRequest, fmt.Errorf("unsupported transfer encoding %q", te)
		}
		chunked = true
	}
	cls := h["Content-Length"]
	if len(cls) > 1 {
		for _, cl := range cls[1:] {
			if textproto.TrimString(cl) != textproto.TrimString(cls[0]) {
				return http.StatusBadRequest, fmt.Errorf("differing Content-Length headers %q", cls)
			}
		}
		h["Content-Length"] = cls[:1]
	}
	var n uint64
	if len(cls) > 0 {
		var err error
		if n, err = strconv.ParseUint(textproto.TrimString(cls[0]), 10, 63); err != nil {
			return http.StatusBadRequest, fmt.Errorf("bad Content-Length %q", cls[0])
		}
	}
	if chunked && len(cls) > 0 {
		return http.StatusBadRequest, errCLAndTE
	}
	c.body = reqBody{c: c}
	switch {
	case chunked:
		if err := checkTrailerKeys(h["Trailer"]); err != nil {
			return http.StatusBadRequest, err
		}
		delete(h, "Trailer")
		r.ContentLength, r.TransferEncoding = -1, chunkedTE
		c.body.chunked = httputil.NewChunkedReader(c.br)
		r.Body = &c.body
	case n > 0:
		r.ContentLength = int64(n)
		c.body.n = int64(n)
		r.Body = &c.body
	default:
		c.body.eof = true
	}

	// What net/http's server checks once http.ReadRequest is done.
	if r.ProtoMajor != 1 {
		return http.StatusHTTPVersionNotSupported, fmt.Errorf("unsupported protocol version %s", r.Proto)
	}
	if r.ProtoAtLeast(1, 1) && len(hosts) == 0 && r.Method != http.MethodConnect {
		return http.StatusBadRequest, errors.New("missing required Host header")
	}
	if len(hosts) == 1 && !inSet(hosts[0], &hostByte) {
		return http.StatusBadRequest, fmt.Errorf("malformed Host header %q", hosts[0])
	}
	delete(h, "Host")

	if ex := h["Expect"]; len(ex) > 0 {
		delete(h, "Expect")
		switch {
		case containsToken(ex, "100-continue"):
			c.body.expect = r.ProtoAtLeast(1, 1) && r.ContentLength != 0
		case ex[0] != "":
			return http.StatusExpectationFailed, nil
		}
	}
	return 0, nil
}

// checkTrailerKeys refuses a Trailer declaration naming a framing header.
func checkTrailerKeys(vv []string) error {
	for _, v := range vv {
		for len(v) > 0 {
			var f string
			f, v, _ = strings.Cut(v, ",")
			switch http.CanonicalHeaderKey(textproto.TrimString(f)) {
			case "Transfer-Encoding", "Trailer", "Content-Length":
				return fmt.Errorf("bad trailer key %q", f)
			}
		}
	}
	return nil
}

// wantsClose is net/http's shouldClose for HTTP/1.x: HTTP/1.1 closes on a
// "close" token, HTTP/1.0 unless it asks to be kept alive.
func wantsClose(minor int, conn []string) bool {
	return containsToken(conn, "close") || minor == 0 && !containsToken(conn, "keep-alive")
}

// containsToken reports whether a comma-separated header value names token.
func containsToken(vv []string, token string) bool {
	for _, v := range vv {
		for len(v) > 0 {
			var f string
			f, v, _ = strings.Cut(v, ",")
			if asciiEqualFold(textproto.TrimString(f), token) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold folds ASCII letters only: strings.EqualFold would also take
// the Kelvin sign for a k, and "chunKed" for chunked.
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// parseVersion is http.ParseHTTPVersion over bytes.
func parseVersion(v []byte) (major, minor int, ok bool) {
	if len(v) != len("HTTP/1.1") || string(v[:5]) != "HTTP/" || v[6] != '.' {
		return 0, 0, false
	}
	ma, mi := v[5]-'0', v[7]-'0'
	if ma > 9 || mi > 9 {
		return 0, 0, false
	}
	return int(ma), int(mi), true
}

func internMethod(m []byte) string {
	switch string(m) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodHead:
		return http.MethodHead
	case http.MethodPut:
		return http.MethodPut
	case http.MethodDelete:
		return http.MethodDelete
	}
	return string(m)
}

func internProto(p []byte) string {
	switch string(p) {
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "HTTP/1.0":
		return "HTTP/1.0"
	}
	return string(p)
}

// tokenByte is RFC 7230's tchar.
var tokenByte = byteSet("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

// pathByte is what url.ParseRequestURI keeps in a path as it is, with no
// RawPath beside it: unreserved characters and the reserved ones a path may
// carry unescaped.
var pathByte = byteSet("-_.~$&+,/:;=@0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

// hostByte is httpguts.ValidHostHeader's alphabet.
var hostByte = byteSet("!$%&'()*+,-.:;=[]_~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

func byteSet(s string) (set [256]bool) {
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return set
}

// inSet reports whether every byte of b is in set.
func inSet[T string | []byte](b T, set *[256]bool) bool {
	for i := 0; i < len(b); i++ {
		if !set[b[i]] {
			return false
		}
	}
	return true
}

func hasCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// --- request bodies ---------------------------------------------------------

// reqBody is the request's Body: the next n bytes of the connection, or a
// chunked stream and its trailer.
type reqBody struct {
	c       *conn
	n       int64     // bytes left of a Content-Length body
	chunked io.Reader // set for a chunked body
	expect  bool      // a 100 Continue is owed before the first read
	eof     bool
	err     error // sticky
	closed  bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.read(p)
}

func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

func (b *reqBody) read(p []byte) (int, error) {
	switch {
	case b.eof:
		return 0, io.EOF
	case b.err != nil:
		return 0, b.err
	case len(p) == 0:
		return 0, nil
	}
	if b.expect {
		b.expect = false
		b.c.out = append(b.c.out, "HTTP/1.1 100 Continue\r\n\r\n"...)
	}
	if b.chunked != nil {
		n, err := b.chunked.Read(p)
		if err == io.EOF {
			if err = b.c.readTrailer(); err == nil {
				b.eof = true
				return n, io.EOF
			}
		}
		if err != nil {
			b.err = err
		}
		return n, err
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.c.br.Read(p)
	b.n -= int64(n)
	if b.n == 0 {
		b.eof = true
		return n, io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.err = err
	}
	return n, err
}

// readTrailer consumes the trailer section after a chunked body's last
// chunk, up to and including its empty line. The fields are not kept.
func (c *conn) readTrailer() error {
	budget := maxHeaderBytes
	for {
		line, err := c.readLine(&budget)
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || len(line) == 0 {
			return err
		}
		if _, _, err := c.headerField(line); err != nil {
			return fmt.Errorf("trailer: %w", err)
		}
	}
}

// drain reads and discards what the handler left of the body, up to
// maxDrainBytes, and reports whether the connection can carry another
// request.
func (b *reqBody) drain() bool {
	switch {
	case b.eof:
		return true
	case b.err != nil, b.expect:
		// A client told to wait for 100 Continue may never send the body.
		return false
	case b.chunked == nil:
		if b.n > maxDrainBytes {
			return false
		}
		n, err := b.c.br.Discard(int(b.n))
		b.n -= int64(n)
		b.eof = err == nil
		return b.eof
	}
	var buf [512]byte
	for seen := 0; seen <= maxDrainBytes; {
		n, err := b.read(buf[:])
		seen += n
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
	return false
}

// --- replies ---------------------------------------------------------------

// reply is the ResponseWriter: the body is buffered until the handler
// returns, so the head can carry its Content-Length, unless it outgrows
// streamAfter, when the head goes out and the body follows in chunks.
type reply struct {
	c          *conn
	hdr        http.Header
	status     int
	body       []byte
	head       bool // a HEAD request: the head says what the body would be, the body is not sent
	streaming  bool
	chunked    bool
	closeAfter bool
}

func (w *reply) Header() http.Header { return w.hdr }

func (w *reply) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	// The first final status stands; informational ones are not relayed.
	if w.status == 0 && code >= 200 {
		w.status = code
	}
}

func (w *reply) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.streaming {
		return w.chunk(p)
	}
	w.body = append(w.body, p...)
	if len(w.body) > streamAfter {
		w.stream()
	}
	return len(p), nil
}

// stream sends the head without a length and what is buffered as the first
// chunk: chunked for HTTP/1.1, delimited by closing for HTTP/1.0.
func (w *reply) stream() {
	w.streaming = true
	if w.c.req.ProtoAtLeast(1, 1) {
		w.chunked = true
	} else {
		w.closeAfter = true
	}
	w.c.appendHead(-1)
	_, _ = w.chunk(w.body)
	w.body = w.body[:0]
}

func (w *reply) chunk(p []byte) (int, error) {
	c := w.c
	if w.head || len(p) == 0 {
		return len(p), nil
	}
	if w.chunked {
		c.out = strconv.AppendInt(c.out, int64(len(p)), 16)
		c.out = append(c.out, "\r\n"...)
		c.out = append(c.out, p...)
		c.out = append(c.out, "\r\n"...)
	} else {
		c.out = append(c.out, p...)
	}
	if len(c.out) >= streamAfter && !c.flush() {
		return 0, c.werr
	}
	return len(p), nil
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// finish completes the reply once the handler has returned.
func (c *conn) finish() {
	w := &c.w
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !c.body.drain() {
		w.closeAfter = true
		c.linger = true
	}
	if w.streaming {
		if w.chunked && !w.head {
			c.out = append(c.out, "0\r\n\r\n"...)
		}
	} else {
		c.appendHead(len(w.body))
		if !w.head && bodyAllowed(w.status) {
			c.out = append(c.out, w.body...)
		}
	}
	w.body = w.body[:0]
	if cap(w.body) > 2*streamAfter {
		w.body = nil
	}
}

// appendHead appends the status line and headers: the handler's in key
// order, then Date, Content-Type when the handler set none and the body
// says what it is, the framing (length >= 0 is a Content-Length) and
// Connection.
func (c *conn) appendHead(length int) {
	w := &c.w
	if containsToken(w.hdr["Connection"], "close") || c.srv.closing.Load() {
		w.closeAfter = true
	}
	b := append(c.out, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(w.status), 10)
	b = append(b, ' ')
	if text := http.StatusText(w.status); text != "" {
		b = append(b, text...)
	} else {
		b = append(b, "status code "...)
		b = strconv.AppendInt(b, int64(w.status), 10)
	}
	b = append(b, "\r\n"...)
	for k := range w.hdr {
		switch k {
		case "Content-Length", "Transfer-Encoding", "Connection":
			continue
		}
		if inSet(k, &tokenByte) {
			c.keys = append(c.keys, k)
		}
	}
	slices.Sort(c.keys)
	for _, k := range c.keys {
		for _, v := range w.hdr[k] {
			b = append(b, k...)
			b = append(b, ": "...)
			b = appendHeaderValue(b, v)
			b = append(b, "\r\n"...)
		}
	}
	clear(c.keys)
	c.keys = c.keys[:0]
	if _, ok := w.hdr["Date"]; !ok {
		b = append(b, "Date: "...)
		b = append(b, c.now()...)
		b = append(b, "\r\n"...)
	}
	_, typed := w.hdr["Content-Type"]
	_, encoded := w.hdr["Content-Encoding"]
	if !typed && !encoded && len(w.body) > 0 && bodyAllowed(w.status) {
		b = append(b, "Content-Type: "...)
		b = append(b, http.DetectContentType(w.body)...)
		b = append(b, "\r\n"...)
	}
	switch {
	case !bodyAllowed(w.status):
	case w.chunked:
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	case length > 0 || (length == 0 && !w.head):
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(length), 10)
		b = append(b, "\r\n"...)
	}
	switch {
	case w.closeAfter:
		b = append(b, "Connection: close\r\n"...)
	case c.req.ProtoMajor == 1 && c.req.ProtoMinor == 0:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	c.out = append(b, "\r\n"...)
}

// appendHeaderValue appends v with line breaks turned to spaces and its ends
// trimmed, as net/http writes header values.
func appendHeaderValue(b []byte, v string) []byte {
	v = textproto.TrimString(v)
	for i := 0; i < len(v); i++ {
		if ch := v[i]; ch == '\r' || ch == '\n' {
			b = append(b, ' ')
		} else {
			b = append(b, ch)
		}
	}
	return b
}

// now is the Date header value, formatted once a second per connection.
func (c *conn) now() []byte {
	t := time.Now()
	if sec := t.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = t.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

package main

// The data port's connection loop (conn.go) over real loopback connections:
// one conformance case per behaviour net/http's server gave these clients,
// the chunked-restore-then-GET sequence, pipelining, shutdown; the request
// head parser fuzzed against http.ReadRequest; and what the loop costs.

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
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// startLoop serves h on a fresh loopback listener (wrap, when set, wraps
// every accepted connection) until the test ends.
func startLoop(t testing.TB, h http.Handler, wrap func(net.Conn) net.Conn) (string, *dataServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrapListener{ln, wrap}
	}
	srv := newDataServer(h)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String(), srv
}

type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

const htmlBody = "<html><body>hi</body></html>"

// loopMux is the handlers the conformance cases talk to.
func loopMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Write(b)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ignored") })
	mux.HandleFunc("/close", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "bye")
	})
	mux.HandleFunc("/html", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, htmlBody) })
	mux.HandleFunc("/big", func(w http.ResponseWriter, _ *http.Request) {
		for i := 0; i < 200; i++ {
			w.Write(bigPart(i))
		}
	})
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	return mux
}

// bigPart is the i-th KiB of /big's reply.
func bigPart(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 1024)
}

// got is one reply as a client read it.
type got struct {
	*http.Response
	body string
}

// exchange writes raw on a new connection and reads one reply per method
// (the method tells the reader whether a body follows). open reports whether
// the server still held the connection open after them; a byte arriving
// after the last expected reply fails the test.
func exchange(t *testing.T, addr, raw string, methods ...string) (replies []got, open bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go nc.Write([]byte(raw)) // the server may stop reading; the write may then fail
	br := bufio.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("reply %d of %d: %v", len(replies)+1, len(methods), err)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reply %d body: %v", len(replies)+1, err)
		}
		replies = append(replies, got{resp, string(b)})
	}
	return replies, stillOpen(t, nc, br)
}

func stillOpen(t *testing.T, nc net.Conn, br *bufio.Reader) bool {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	b, err := br.ReadByte()
	var ne net.Error
	switch {
	case err == nil:
		rest, _ := br.Peek(br.Buffered())
		t.Fatalf("unsolicited bytes after the replies: %q", append([]byte{b}, rest...))
	case errors.As(err, &ne) && ne.Timeout():
		return true
	}
	return false
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }

func wantReply(t *testing.T, r got, status int, body string) {
	t.Helper()
	if r.StatusCode != status || (body != "" && r.body != body) {
		t.Fatalf("reply %d %q, want %d %q", r.StatusCode, r.body, status, body)
	}
}

func wantOpen(t *testing.T, open, want bool) {
	t.Helper()
	if open != want {
		t.Fatalf("connection open = %v after the replies, want %v", open, want)
	}
}

// TestLoopConformance: one case per behaviour the loop keeps from net/http.
func TestLoopConformance(t *testing.T) {
	addr, _ := startLoop(t, loopMux(), nil)
	refused := func(raw string, status int) func(t *testing.T) {
		return func(t *testing.T) {
			r, open := exchange(t, addr, raw+get("/ok"), "GET")
			wantReply(t, r[0], status, "")
			wantOpen(t, open, false)
			if !r[0].Close {
				t.Fatalf("refusal without Connection: close: %v", r[0].Header)
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"keep-alive on HTTP/1.1", func(t *testing.T) {
			r, open := exchange(t, addr, get("/ok")+get("/ok"), "GET", "GET")
			wantReply(t, r[0], 200, "ok")
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
			if r[0].Close || r[0].Header.Get("Date") == "" || r[0].ContentLength != 2 {
				t.Fatalf("keep-alive reply: close=%v header=%v length=%d", r[0].Close, r[0].Header, r[0].ContentLength)
			}
		}},
		{"HTTP/1.0 closes", func(t *testing.T) {
			r, open := exchange(t, addr, "GET /ok HTTP/1.0\r\n\r\n", "GET")
			wantReply(t, r[0], 200, "ok")
			wantOpen(t, open, false)
		}},
		{"HTTP/1.0 keep-alive", func(t *testing.T) {
			req := "GET /ok HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
			r, open := exchange(t, addr, req+req, "GET", "GET")
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
			if r[0].Header.Get("Connection") != "keep-alive" {
				t.Fatalf("HTTP/1.0 keep-alive reply says Connection %q", r[0].Header.Get("Connection"))
			}
		}},
		{"client Connection: close", func(t *testing.T) {
			r, open := exchange(t, addr, "GET /ok HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"+get("/ok"), "GET")
			wantReply(t, r[0], 200, "ok")
			wantOpen(t, open, false)
			if !r[0].Close {
				t.Fatal("reply to Connection: close does not say close")
			}
		}},
		{"handler Connection: close", func(t *testing.T) {
			r, open := exchange(t, addr, get("/close")+get("/ok"), "GET")
			wantReply(t, r[0], 200, "bye")
			wantOpen(t, open, false)
		}},
		{"Content-Length body", func(t *testing.T) {
			r, open := exchange(t, addr, "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"+get("/ok"), "POST", "GET")
			wantReply(t, r[0], 200, "hello")
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
		}},
		{"chunked body with trailer", func(t *testing.T) {
			body := "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Sum: 11\r\n\r\n"
			r, open := exchange(t, addr, "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n"+body+get("/ok"), "POST", "GET")
			wantReply(t, r[0], 200, "hello world")
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
		}},
		{"Expect: 100-continue", func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(nc)
			io.WriteString(nc, "POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n")
			interim, err := http.ReadResponse(br, nil)
			if err != nil || interim.StatusCode != http.StatusContinue {
				t.Fatalf("before the body: %v %v, want 100 Continue", interim, err)
			}
			io.WriteString(nc, "hello")
			final, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(final.Body)
			wantReply(t, got{final, string(b)}, 200, "hello")
		}},
		{"Expect: 100-continue, body never read", func(t *testing.T) {
			r, open := exchange(t, addr, "POST /ignore HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 10\r\n\r\n", "POST")
			wantReply(t, r[0], 200, "ignored")
			wantOpen(t, open, false)
		}},
		{"unread body drained", func(t *testing.T) {
			r, open := exchange(t, addr, "POST /ignore HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n"+strings.Repeat("z", 1000)+get("/ok"), "POST", "GET")
			wantReply(t, r[0], 200, "ignored")
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
		}},
		{"unread body past the drain bound closes", func(t *testing.T) {
			n := maxDrainBytes + 1
			r, open := exchange(t, addr, "POST /ignore HTTP/1.1\r\nHost: x\r\nContent-Length: "+strconv.Itoa(n)+"\r\n\r\n"+strings.Repeat("z", n), "POST")
			wantReply(t, r[0], 200, "ignored")
			wantOpen(t, open, false)
		}},
		{"HEAD", func(t *testing.T) {
			r, open := exchange(t, addr, "HEAD /html HTTP/1.1\r\nHost: x\r\n\r\n"+get("/ok"), "HEAD", "GET")
			if r[0].StatusCode != 200 || r[0].body != "" || r[0].ContentLength != int64(len(htmlBody)) ||
				!strings.HasPrefix(r[0].Header.Get("Content-Type"), "text/html") {
				t.Fatalf("HEAD reply %d %q length %d header %v", r[0].StatusCode, r[0].body, r[0].ContentLength, r[0].Header)
			}
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
		}},
		{"Content-Type sniffed", func(t *testing.T) {
			r, _ := exchange(t, addr, get("/html"), "GET")
			if ct := r[0].Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
				t.Fatalf("sniffed Content-Type %q", ct)
			}
		}},
		{"reply streamed in chunks", func(t *testing.T) {
			r, open := exchange(t, addr, get("/big")+get("/ok"), "GET", "GET")
			if len(r[0].TransferEncoding) != 1 || r[0].TransferEncoding[0] != "chunked" || r[0].ContentLength != -1 {
				t.Fatalf("a 200 KiB reply went out with TE %v, length %d", r[0].TransferEncoding, r[0].ContentLength)
			}
			checkBig(t, r[0].body)
			wantReply(t, r[1], 200, "ok")
			wantOpen(t, open, true)
		}},
		{"reply streamed to HTTP/1.0 until close", func(t *testing.T) {
			r, open := exchange(t, addr, "GET /big HTTP/1.0\r\n\r\n", "GET")
			checkBig(t, r[0].body)
			wantOpen(t, open, false)
		}},
		{"400 malformed request line", refused("GET /ok\r\nHost: x\r\n\r\n", 400)},
		{"400 Content-Length with Transfer-Encoding", refused("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 400)},
		{"400 differing Content-Lengths", refused("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", 400)},
		{"400 whitespace before the colon", refused("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length : 3\r\n\r\nabc", 400)},
		{"400 obs-fold", refused("GET /ok HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n  folded\r\n\r\n", 400)},
		{"400 non-chunked Transfer-Encoding", refused("POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", 400)},
		{"400 missing Host on HTTP/1.1", refused("GET /ok HTTP/1.1\r\n\r\n", 400)},
		{"400 head cut short", func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			io.WriteString(nc, "GET /ok HTTP/1.1\r\nHost: x\r\n")
			nc.(*net.TCPConn).CloseWrite()
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
			if err != nil || resp.StatusCode != 400 {
				t.Fatalf("head cut short by EOF: %v %v, want 400", resp, err)
			}
		}},
		{"431 past 1 MiB of header", refused("GET /ok HTTP/1.1\r\nHost: x\r\nX-Big: "+strings.Repeat("b", maxHeaderBytes)+"\r\n\r\n", 431)},
		{"505 HTTP/2.0", refused("GET /ok HTTP/2.0\r\nHost: x\r\n\r\n", 505)},
		{"417 unknown expectation", refused("POST /echo HTTP/1.1\r\nHost: x\r\nExpect: teapot\r\nContent-Length: 1\r\n\r\nz", 417)},
		{"handler panic", func(t *testing.T) {
			var logged lockedBuffer
			defer log.SetOutput(log.Writer())
			log.SetOutput(&logged)
			r, open := exchange(t, addr, get("/panic")+get("/ok"))
			if len(r) != 0 || open {
				t.Fatalf("after a panic: %d replies, open %v; want the connection closed unanswered", len(r), open)
			}
			if !strings.Contains(logged.String(), "panic serving") || !strings.Contains(logged.String(), "boom") {
				t.Fatalf("panic not logged: %q", logged.String())
			}
			r, _ = exchange(t, addr, get("/ok"), "GET")
			wantReply(t, r[0], 200, "ok")
		}},
	} {
		t.Run(c.name, c.run)
	}
}

// lockedBuffer is a log destination the test reads while a connection
// goroutine may write it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func checkBig(t *testing.T, body string) {
	t.Helper()
	if len(body) != 200*1024 {
		t.Fatalf("streamed body is %d bytes, want %d", len(body), 200*1024)
	}
	for i := 0; i < 200; i++ {
		if body[i*1024:(i+1)*1024] != string(bigPart(i)) {
			t.Fatalf("streamed body differs in KiB %d", i)
		}
	}
}

// TestRestoreThenGetOnOneConnection: a chunked POST /restore (what soupsctl
// restore sends) leaves nothing of its body or trailer behind on the
// connection, so the GET after it on the same connection is answered, not
// refused as garbage.
func TestRestoreThenGetOnOneConnection(t *testing.T) {
	src, _ := newTestServer(t, 0)
	for i := 0; i < 20; i++ {
		if _, err := src.k().Update(repro.Key{Type: "Account", ID: fmt.Sprintf("A-%d", i)}, repro.Delta("balance", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var export bytes.Buffer
	if err := src.k().Export(&export); err != nil {
		t.Fatal(err)
	}

	dst, _ := newTestServer(t, 0)
	addr, _ := startLoop(t, dst.routes(), nil)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	// io.MultiReader hides the length, so the client sends the body chunked.
	resp, err := hc.Post("http://"+addr+"/restore", "application/x-ndjson", io.MultiReader(bytes.NewReader(export.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("restore: %d %s", resp.StatusCode, b)
	}
	var reused bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
	req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", "http://"+addr+"/entities/Account/A-7", nil)
	resp, err = hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"key":"Account/A-7","fields":{"balance":7}}` + "\n"; resp.StatusCode != 200 || string(b) != want || !reused {
		t.Fatalf("GET after restore: %d %q (connection reused %v), want 200 %q on the same connection", resp.StatusCode, b, reused, want)
	}

	// The same on the wire, with a trailer, the GET in the same segment.
	chunk := export.String()
	raw := "POST /restore HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
		strconv.FormatInt(int64(len(chunk)), 16) + "\r\n" + chunk + "\r\n0\r\nX-Checksum: none\r\n\r\n" + get("/entities/Account/A-3")
	r, open := exchange(t, addr, raw, "POST", "GET")
	wantReply(t, r[1], 200, `{"key":"Account/A-3","fields":{"balance":3}}`+"\n")
	wantOpen(t, open, true)
}

// TestPipelinedRepliesShareOneWrite: 32 GETs sent in one segment are
// answered in order, and the replies leave in at most two writes.
func TestPipelinedRepliesShareOneWrite(t *testing.T) {
	s, _ := newTestServer(t, 0)
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := s.k().Update(repro.Key{Type: "Lead", ID: fmt.Sprintf("L-%d", i)}, repro.Set("contact", fmt.Sprintf("c-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var writes atomic.Int64
	addr, _ := startLoop(t, s.routes(), func(c net.Conn) net.Conn { return countingConn{c, &writes} })
	var raw strings.Builder
	methods := make([]string, n)
	for i := range methods {
		raw.WriteString(get(fmt.Sprintf("/entities/Lead/L-%d", i)))
		methods[i] = "GET"
	}
	r, open := exchange(t, addr, raw.String(), methods...)
	for i, reply := range r {
		wantReply(t, reply, 200, fmt.Sprintf(`{"key":"Lead/L-%d","fields":{"contact":"c-%d"}}`+"\n", i, i))
	}
	wantOpen(t, open, true)
	if w := writes.Load(); w > 2 {
		t.Fatalf("%d pipelined replies took %d writes, want at most 2", n, w)
	}
}

// TestShutdownFinishesInFlightClosesIdle: Shutdown closes an idle
// connection at once, lets a request in flight finish with Connection:
// close, refuses new connections, and returns when both are gone.
func TestShutdownFinishesInFlightClosesIdle(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	mux := loopMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newDataServer(mux)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	io.WriteString(slow, get("/slow"))
	<-started

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleBR := bufio.NewReader(idle)
	io.WriteString(idle, get("/ok"))
	if resp, err := http.ReadResponse(idleBR, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("idle connection's request: %v %v", resp, err)
	}
	io.ReadAll(io.LimitReader(idleBR, 2))

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idleBR.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection during shutdown: read %v, want EOF", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("the listener still accepts during shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	slowBR := bufio.NewReader(slow)
	resp, err := http.ReadResponse(slowBR, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(b) != "done" || !resp.Close {
		t.Fatalf("in-flight request: %d %q close=%v, want 200 \"done\" with Connection: close", resp.StatusCode, b, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// --- the head parser against http.ReadRequest --------------------------------

// headFields is what the fuzz compares of a parsed request head.
type headFields struct {
	Method, Path, RawPath, RawQuery, Host string
	ContentLength                         int64
	Chunked, Close                        bool
}

// oracleHead is what net/http made of a request head: http.ReadRequest, then
// the checks net/http's server adds before a handler sees the request.
// tightened reports a head the loop refuses on purpose: Content-Length
// beside a chunked Transfer-Encoding, an obs-fold line, the HTTP/2 preface.
func oracleHead(raw []byte) (h headFields, tightened bool, err error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return h, false, err
	}
	h = headFields{req.Method, req.URL.Path, req.URL.RawPath, req.URL.RawQuery, req.Host,
		req.ContentLength, len(req.TransferEncoding) > 0, req.Close}
	// ReadRequest drops the Host field from the header; the server's checks
	// need it, so it is read off the raw lines.
	var hosts []string
	lines := strings.Split(string(raw), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			break
		}
		key, val, _ := strings.Cut(line, ":")
		if line[0] == ' ' || line[0] == '\t' || (h.Chunked && strings.EqualFold(key, "Content-Length")) {
			tightened = true
		}
		if strings.EqualFold(key, "Host") {
			hosts = append(hosts, strings.Trim(val, " \t"))
		}
	}
	if req.Method == "PRI" && req.Proto == "HTTP/2.0" {
		return h, true, nil
	}
	if req.ProtoMajor != 1 {
		return h, false, errors.New("unsupported protocol version")
	}
	if req.ProtoAtLeast(1, 1) && len(hosts) == 0 && req.Method != "CONNECT" {
		return h, false, errors.New("missing required Host header")
	}
	if len(hosts) == 1 && strings.IndexFunc(hosts[0], func(r rune) bool { return !strings.ContainsRune(oracleHostBytes, r) }) >= 0 {
		return h, false, errors.New("malformed Host header")
	}
	for k := range req.Header {
		if strings.IndexFunc(k, func(r rune) bool { return r > 0x7f || !tokenByte[r] }) >= 0 {
			return h, false, errors.New("invalid header name")
		}
	}
	return h, tightened, nil
}

// oracleHostBytes is the alphabet of net/http's ValidHostHeader.
const oracleHostBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!$%&'()*+,-.:;=[]_~"

// memConn is a connection over in-memory input; when loop is set the input
// repeats for ever. Writes are counted and dropped.
type memConn struct {
	in     []byte
	off    int
	loop   bool
	writes int
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.off == len(m.in) {
		if !m.loop || len(m.in) == 0 {
			return 0, io.EOF
		}
		m.off = 0
	}
	n := copy(p, m.in[m.off:])
	m.off += n
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error)      { m.writes++; return len(p), nil }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// loopHead parses raw with the loop's parser.
func loopHead(raw []byte) (headFields, error) {
	c := newConn(newDataServer(nil), &memConn{in: raw})
	status, err := c.readRequest()
	if err == nil && status != 0 && status != http.StatusExpectationFailed {
		err = fmt.Errorf("status %d", status)
	}
	r := &c.req
	return headFields{r.Method, c.url.Path, c.url.RawPath, c.url.RawQuery, r.Host,
		r.ContentLength, len(r.TransferEncoding) > 0, r.Close}, err
}

// headSeeds is what the Go client and curl send, the shapes soupsctl
// restore and the benchmark use, and the request-smuggling vectors.
func headSeeds(f *testing.F) []string {
	var seeds []string
	for _, req := range []*http.Request{
		mustRequest(f, "GET", "http://127.0.0.1:8080/entities/Account/A-1", ""),
		mustRequest(f, "POST", "http://127.0.0.1:8080/entities/Account/A-1", `{"delta":{"balance":1}}`),
		mustRequest(f, "GET", "http://127.0.0.1:8080/catchup?unit=1&after=5&limit=", ""),
		mustRequest(f, "HEAD", "http://[::1]:8080/history/T/%2Fid?x", ""),
	} {
		var b bytes.Buffer
		if err := req.Write(&b); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b.String())
	}
	return append(seeds,
		"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		"POST /entities/Order/O-1 HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 25\r\n\r\n",
		"POST /restore HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: Go-http-client/1.1\r\nTransfer-Encoding: chunked\r\nContent-Type: application/x-ndjson\r\nAccept-Encoding: gzip\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2000\r\n\r\n",
		"GET /ok HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /ok HTTP/1.0\n\n",
		"GET http://example.com/a?b HTTP/1.1\r\nHost: other\r\n\r\n",
		"CONNECT example.com:443 HTTP/1.1\r\nHost: example.com:443\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length:  3\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length : 3\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding : chunked\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nX: a\r\n Transfer-Encoding: chunked\r\n\r\n",
		"POST / HTTP/1.1\r\n Host: x\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: CHUNKED\r\nTrailer: Content-Length\r\n\r\n",
		"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: +3\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 9223372036854775808\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length:\r\n\r\n",
		"GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX-Bad: a\x00b\r\n\r\n",
		"GET / HTTP/1.1\rHost: x\r\n\r\n",
		"GET  / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a%zz HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a%2Fb?q=%zz#f HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /ok? HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /ok?? HTTP/1.1\r\nHost: x\r\n\r\n",
		"G\x7fT / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.10\r\nHost: x\r\n\r\n",
		"GET / HTTP/0.9\r\n\r\n",
		"GET / http/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, Close\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\n\r",
	)
}

func mustRequest(f *testing.F, method, url, body string) *http.Request {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		f.Fatal(err)
	}
	return req
}

// FuzzRequestHead: on any head the loop's parser and net/http agree on
// accept or refuse (but for the stated tightenings, which oracleHead names)
// and on every field a handler or the framing reads; nothing panics.
func FuzzRequestHead(f *testing.F) {
	for _, s := range headSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			return
		}
		want, tightened, wantErr := oracleHead(raw)
		h, err := loopHead(raw)
		switch {
		case wantErr != nil || tightened:
			if err == nil {
				t.Fatalf("head %q: accepted as %+v; net/http says err=%v tightened=%v", raw, h, wantErr, tightened)
			}
		case err != nil:
			t.Fatalf("head %q: refused (%v); net/http reads %+v", raw, err, want)
		case h != want:
			t.Fatalf("head %q:\n got %+v\nwant %+v", raw, h, want)
		}
	})
}

// --- what the loop costs ----------------------------------------------------------

const (
	benchGETHead   = "GET /entities/Lead/L-%d HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"
	benchPOSTHead  = "POST /entities/Account/A-%d HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: %d\r\n\r\n%s"
	benchDeltaBody = `{"delta":{"balance":2.5},"describe":"banking op 17"}`
)

// portRequests is the raw requests of one data-port workload over the keys
// edgeWorkloads warms.
func portRequests(name string) [][]byte {
	var reqs [][]byte
	for i := 0; i < 64; i++ {
		switch name {
		case "GET":
			reqs = append(reqs, []byte(fmt.Sprintf(benchGETHead, i)))
		case "POST-delta":
			reqs = append(reqs, []byte(fmt.Sprintf(benchPOSTHead, i, len(benchDeltaBody), benchDeltaBody)))
		}
	}
	return reqs
}

// TestDataPortAllocationBudget: what the loop itself allocates per request —
// parse, dispatch, reply head — with a handler that allocates nothing, over a
// connection that replays the same requests for ever. measured + 1: the one
// allocation is the request-target string, which the handler may keep.
func TestDataPortAllocationBudget(t *testing.T) {
	const budget = 2
	reply := []byte(`{"ok":true}` + "\n")
	var buf [512]byte
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := r.Body.Read(buf[:]); err != nil {
				break
			}
		}
		w.Header()["Content-Type"] = jsonContentType
		w.Write(reply)
	})
	for _, name := range []string{"GET", "POST-delta"} {
		mc := &memConn{in: bytes.Join(portRequests(name), nil), loop: true}
		c := newConn(newDataServer(h), mc)
		allocs := testing.AllocsPerRun(2000, func() {
			if !c.serveOne() {
				t.Fatal("the connection closed")
			}
		})
		if c.w.status != http.StatusOK || mc.writes == 0 {
			t.Fatalf("%s: status %d after %d writes", name, c.w.status, mc.writes)
		}
		t.Logf("%s: %.0f allocs/request in the loop (budget %d)", name, allocs, budget)
		if allocs > budget {
			t.Errorf("%s: the loop allocates %.0f times a request, budget %d", name, allocs, budget)
		}
	}
}

// readReply reads one Content-Length reply off br without allocating and
// returns its status.
func readReply(br *bufio.Reader) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			length = 0
			for _, d := range bytes.TrimRight(v, "\r\n") {
				length = 10*length + int(d-'0')
			}
		}
	}
	if length < 0 {
		return 0, errors.New("reply without Content-Length")
	}
	_, err = br.Discard(length)
	return status, err
}

// BenchmarkDataPort is raw requests through the connection loop and the data
// port's routes to an in-memory kernel, over net.Pipe: a client writes depth
// requests per write and reads their replies before it writes the next
// burst. writes/op is the loop's write calls per request (make bench-edge).
func BenchmarkDataPort(b *testing.B) {
	s := newMemServer(b)
	edgeWorkloads(b, s) // creates and warms the keys
	srv := newDataServer(s.routes())
	for _, name := range []string{"GET", "POST-delta"} {
		reqs := portRequests(name)
		for _, depth := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				var writes atomic.Int64
				client, server := net.Pipe()
				c := newConn(srv, countingConn{server, &writes})
				served := make(chan struct{})
				go func() { c.serve(); close(served) }()
				defer func() { client.Close(); <-served }()

				var burst []byte
				werr := make(chan error, 1)
				br := bufio.NewReaderSize(client, 64<<10)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; {
					n := min(depth, b.N-i)
					burst = burst[:0]
					for k := 0; k < n; k++ {
						burst = append(burst, reqs[(i+k)%len(reqs)]...)
					}
					// The loop writes replies while it still reads the burst,
					// so the burst goes out from a goroutine of its own.
					go func() { _, err := client.Write(burst); werr <- err }()
					for k := 0; k < n; k++ {
						if status, err := readReply(br); err != nil || status != http.StatusOK {
							b.Fatalf("request %d: status %d, %v", i+k, status, err)
						}
					}
					if err := <-werr; err != nil {
						b.Fatal(err)
					}
					i += n
				}
				b.StopTimer()
				b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
			})
		}
	}
}

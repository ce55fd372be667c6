package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// clients is the closed loop's width: two callers that each wait for their
// reply, zero think time, on a 2-core sandbox. README.md has the
// measurements behind the choice.
const clients = 2

// newHTTPClient returns a client holding at most `clients` connections.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		},
	}
}

// entityReply is the body of GET /entities/Type/ID.
type entityReply struct {
	Fields map[string]interface{} `json:"fields"`
}

// A checker inspects one completed request; a non-empty answer is a
// verification mismatch and fails the operation.
type checker func(i uint64, req loadgen.Request, status int, body []byte) string

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	from, to  uint64 // stream indices [from, to) were issued, each exactly once
	elapsed   time.Duration
	lat       [3][]int64 // sorted round-trip ns of served requests, by loadgen.Class
	attempted int
	failed    int
	notFound  int   // GETs answered 404 (served: the key had not been written yet)
	shed      int   // 503s, also counted in failed
	userBytes int64 // request-body bytes of acknowledged writes
	firstErr  string
	spans     []span // one per request when traced
}

func (r *loadResult) served() int { return r.attempted - r.failed }

// driveHTTP runs the closed loop over stream indices starting at from until
// the deadline passes, the stream ends or limit operations were issued
// (limit 0 means no limit). Each client takes the next index from one shared
// cursor, sends the request, waits for the whole reply, and only then takes
// another; a client checks the clock before it takes an index, so every
// index taken is completed.
func driveHTTP(hc *http.Client, base string, st stream, from uint64, limit uint64, deadline time.Time, check checker, rec *recorder) loadResult {
	var cursor atomic.Uint64
	cursor.Store(from)
	type perClient struct {
		lat                               [3][]int64
		attempted, failed, notFound, shed int
		userBytes                         int64
		firstErr                          string
		spans                             []span
	}
	parts := make([]perClient, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(pc *perClient) {
			defer wg.Done()
			fail := func(format string, args ...interface{}) {
				pc.failed++
				if pc.firstErr == "" {
					pc.firstErr = fmt.Sprintf(format, args...)
				}
			}
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := cursor.Add(1) - 1
				if limit > 0 && i >= from+limit {
					cursor.Add(^uint64(0))
					return
				}
				req, ok := st.at(i)
				if !ok {
					cursor.Add(^uint64(0))
					return
				}
				var body io.Reader
				if req.Body != "" {
					body = strings.NewReader(req.Body)
				}
				hr, err := http.NewRequest(req.Method, base+req.Path, body)
				if err != nil {
					pc.attempted++
					fail("request %d: %v", i, err)
					continue
				}
				pc.attempted++
				t0 := time.Now()
				resp, err := hc.Do(hr)
				if err != nil {
					fail("request %d %s %s: %v", i, req.Method, req.Path, err)
					continue
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				t1 := time.Now()
				if err != nil {
					fail("request %d %s %s: reading reply: %v", i, req.Method, req.Path, err)
					continue
				}
				served := resp.StatusCode >= 200 && resp.StatusCode < 300
				if resp.StatusCode == http.StatusNotFound && req.Method == http.MethodGet {
					served = true
					pc.notFound++
				}
				if !served {
					if resp.StatusCode == http.StatusServiceUnavailable {
						pc.shed++
					}
					fail("request %d %s %s: status %d: %s", i, req.Method, req.Path, resp.StatusCode, strings.TrimSpace(string(raw)))
					continue
				}
				if check != nil {
					if why := check(i, req, resp.StatusCode, raw); why != "" {
						fail("request %d %s %s: %s", i, req.Method, req.Path, why)
						continue
					}
				}
				pc.lat[req.Class] = append(pc.lat[req.Class], int64(t1.Sub(t0)))
				if req.Class == loadgen.Submit {
					pc.userBytes += int64(len(req.Body))
				}
				if rec != nil {
					pc.spans = append(pc.spans, span{Name: spHTTP[req.Class],
						Start: int64(t0.Sub(rec.epoch)), End: int64(t1.Sub(rec.epoch)), Parent: -1, Op: int64(i)})
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	res := loadResult{from: from, to: cursor.Load(), elapsed: time.Since(start)}
	for cls := range res.lat {
		res.lat[cls] = sortedCopy(parts[0].lat[cls], parts[1].lat[cls])
	}
	for _, pc := range parts {
		res.attempted += pc.attempted
		res.failed += pc.failed
		res.notFound += pc.notFound
		res.shed += pc.shed
		res.userBytes += pc.userBytes
		if res.firstErr == "" {
			res.firstErr = pc.firstErr
		}
		res.spans = append(res.spans, pc.spans...)
	}
	return res
}

// getFields reads one entity over HTTP. found is false on a 404.
func getFields(hc *http.Client, base, path string) (fields map[string]interface{}, found bool, err error) {
	resp, err := hc.Get(base + path)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var reply entityReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, false, fmt.Errorf("GET %s: %w", path, err)
	}
	return reply.Fields, true, nil
}

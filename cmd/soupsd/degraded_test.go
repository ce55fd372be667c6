package main

// HTTP-level graceful degradation: overload and degraded-storage refusals
// surface as 503 + Retry-After, /readyz fails while a unit is read-only
// (while /healthz stays green — the node is alive, just shedding), and
// /status reports the posture soupsctl renders.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/storage"
)

// newTestServer builds a primary server over an in-memory kernel whose single
// unit sits on a fault-injecting backend, bypassing the flag-driven
// bootstrap.
func newTestServer(t testing.TB, maxQueueDepth int) (*server, *storage.FaultBackend) {
	t.Helper()
	fb := storage.NewFaultBackend(storage.NewMemory())
	k, err := repro.Bootstrap(repro.Options{
		Node:          "test",
		Units:         1,
		UnitBackends:  []storage.Backend{fb},
		MaxQueueDepth: maxQueueDepth,
		RearmAfter:    time.Hour, // recovery is driven explicitly by the test
	}, repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	s := &server{}
	s.kernel.Store(k)
	return s, fb
}

func doJSON(t *testing.T, h http.HandlerFunc, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestEventSubmitShedsWith503AndRetryAfter(t *testing.T) {
	s, _ := newTestServer(t, 1)
	first := doJSON(t, s.handleEvents, "POST", "/events", `{"name":"noop","type":"Account","id":"A1"}`)
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d %s, want 202", first.Code, first.Body)
	}
	second := doJSON(t, s.handleEvents, "POST", "/events", `{"name":"noop","type":"Account","id":"A1"}`)
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit past depth = %d %s, want 503", second.Code, second.Body)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("503 backpressure response is missing its Retry-After hint")
	}
	if !strings.Contains(second.Body.String(), "overloaded") {
		t.Fatalf("shed body %q does not name the overload", second.Body)
	}
}

func TestDegradedStorageWrites503ReadsServeAndReadyzFlips(t *testing.T) {
	s, fb := newTestServer(t, 0)
	seed := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", `{"delta":{"balance":10}}`)
	if seed.Code != http.StatusOK {
		t.Fatalf("seed write = %d %s", seed.Code, seed.Body)
	}
	if w := doJSON(t, s.handleReadyz, "GET", "/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz while healthy = %d %s", w.Code, w.Body)
	}

	fb.FailAppends(1)
	w := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", `{"delta":{"balance":5}}`)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("degraded write = %d (Retry-After %q), want 503 with hint", w.Code, w.Header().Get("Retry-After"))
	}

	// Reads keep serving from the materialised cache, unaffected by the
	// refused write.
	r := doJSON(t, s.handleEntity, "GET", "/entities/Account/A1", "")
	if r.Code != http.StatusOK {
		t.Fatalf("degraded read = %d %s", r.Code, r.Body)
	}
	var st struct {
		Fields map[string]interface{} `json:"fields"`
	}
	if err := json.Unmarshal(r.Body.Bytes(), &st); err != nil || st.Fields["balance"] != 10.0 {
		t.Fatalf("degraded read body = %s (err %v), want balance 10", r.Body, err)
	}

	// Readiness fails and names the unit; liveness stays green.
	ready := doJSON(t, s.handleReadyz, "GET", "/readyz", "")
	if ready.Code != http.StatusServiceUnavailable || !strings.Contains(ready.Body.String(), "append-error") {
		t.Fatalf("readyz while degraded = %d %s, want 503 naming append-error", ready.Code, ready.Body)
	}
	if ready.Header().Get("Retry-After") == "" {
		t.Fatal("degraded readyz is missing its Retry-After hint")
	}
	if live := doJSON(t, s.handleHealthz, "GET", "/healthz", ""); live.Code != http.StatusOK {
		t.Fatalf("healthz while degraded = %d %s, want 200 (node is alive)", live.Code, live.Body)
	}

	// /status carries the machine-readable posture.
	var status struct {
		Role   string `json:"role"`
		Health struct {
			WritesOK      bool `json:"writes_ok"`
			DegradedUnits int  `json:"degraded_units"`
			Units         []struct {
				Reason string `json:"reason"`
			} `json:"units"`
			WritesRefused uint64 `json:"writes_refused"`
		} `json:"health"`
	}
	sw := doJSON(t, s.handleStatus, "GET", "/status", "")
	if err := json.Unmarshal(sw.Body.Bytes(), &status); err != nil {
		t.Fatalf("status JSON: %v in %s", err, sw.Body)
	}
	if status.Role != "primary" || status.Health.WritesOK || status.Health.DegradedUnits != 1 ||
		status.Health.Units[0].Reason != "append-error" {
		t.Fatalf("status = %+v, want primary with one append-error unit", status)
	}

	// Heal + repair restores readiness and the write path.
	fb.Heal()
	if err := s.k().RepairUnit(0, nil); err != nil {
		t.Fatalf("RepairUnit: %v", err)
	}
	if w := doJSON(t, s.handleReadyz, "GET", "/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz after repair = %d %s", w.Code, w.Body)
	}
	if w := doJSON(t, s.handleEntity, "POST", "/entities/Account/A1", `{"delta":{"balance":5}}`); w.Code != http.StatusOK {
		t.Fatalf("write after repair = %d %s", w.Code, w.Body)
	}
}

func TestEventDeadlineTravelsAndDropsStaleWork(t *testing.T) {
	s, _ := newTestServer(t, 0)
	// A 1ms budget expires before Drain runs; the event must be dropped
	// unexecuted, not held forever.
	w := doJSON(t, s.handleEvents, "POST", "/events", `{"name":"core.apply","type":"Account","id":"A1","deadline_ms":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", w.Code, w.Body)
	}
	time.Sleep(5 * time.Millisecond)
	k := s.k()
	k.Drain()
	h := k.Health()
	if h.DeadlineDropped == 0 {
		t.Fatalf("health = %+v, want the expired event counted as deadline-dropped", h)
	}
	if h.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", h.QueueDepth)
	}
}

// TestJSONResponsesDeclareContentType: headers are final once the status line
// is written, so a handler that writes the status first sends its JSON body
// as sniffed text/plain. Result() holds the headers as they stood at
// WriteHeader — what a client receives.
func TestJSONResponsesDeclareContentType(t *testing.T) {
	s, _ := newTestServer(t, 1)
	for _, c := range []struct {
		name               string
		h                  http.HandlerFunc
		method, path, body string
		want               int
	}{
		{"event accepted", s.handleEvents, "POST", "/events", `{"name":"noop","type":"Account","id":"A1"}`, http.StatusAccepted},
		{"entity update", s.handleEntity, "POST", "/entities/Account/A2", `{"delta":{"balance":5}}`, http.StatusOK},
		{"entity read", s.handleEntity, "GET", "/entities/Account/A2", "", http.StatusOK},
		{"status", s.handleStatus, "GET", "/status", "", http.StatusOK},
	} {
		res := doJSON(t, c.h, c.method, c.path, c.body).Result()
		if res.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, res.StatusCode, c.want)
		}
		if got := res.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.name, got)
		}
	}
	// The queue (depth 1) is full now: the shed path answers 503 with the
	// -retry-after flag's whole seconds.
	res := doJSON(t, s.handleEvents, "POST", "/events", `{"name":"noop","type":"Account","id":"A1"}`).Result()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit past depth = %d, want 503", res.StatusCode)
	}
	if got, want := res.Header.Get("Retry-After"), strconv.Itoa(int((*retryAfter).Seconds())); got != want {
		t.Errorf("shed Retry-After %q, want %q", got, want)
	}
}

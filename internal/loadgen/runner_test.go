package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
)

// fixedScenario always issues the same request; enough to exercise pacing.
type fixedScenario struct {
	name string
	req  Request
}

func (s *fixedScenario) Name() string             { return s.name }
func (s *fixedScenario) Request(i uint64) Request { r := s.req; r.Scenario = s.name; return r }

func okServer(tb testing.TB, delay time.Duration, hits *atomic.Uint64) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"txn":1,"warnings":0}`)
	}))
	tb.Cleanup(srv.Close)
	return srv
}

func submitScenario(name string) Scenario {
	return &fixedScenario{name: name, req: Request{
		Class: Submit, Method: "POST", Path: "/entities/Account/a", Body: `{"delta":{"balance":1}}`,
	}}
}

func TestRunnerOffersScheduledLoad(t *testing.T) {
	var hits atomic.Uint64
	srv := okServer(t, 0, &hits)
	r, err := NewRunner(Options{
		BaseURL:   srv.URL,
		Client:    srv.Client(),
		Scenarios: []Scenario{submitScenario("s")},
		Arrival:   uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), []Phase{{Name: "steady", Duration: 200 * time.Millisecond, Rate: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d phase results", len(res))
	}
	// 500/s for 200ms = 100 arrivals, fixed by the schedule alone.
	if res[0].Offered < 95 || res[0].Offered > 105 {
		t.Fatalf("offered %d arrivals, want ~100", res[0].Offered)
	}
	if hits.Load() != res[0].Offered {
		t.Fatalf("server saw %d of %d offered", hits.Load(), res[0].Offered)
	}
	ok, shed, nf, errs := res[0].Totals()
	if ok != res[0].Offered || shed != 0 || nf != 0 || errs != 0 {
		t.Fatalf("totals ok=%d shed=%d nf=%d errs=%d", ok, shed, nf, errs)
	}
	rows := res[0].Rows()
	if len(rows) != 1 || rows[0].Scenario != "s" || rows[0].Class != Submit {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Latency.Count != ok {
		t.Fatalf("histogram recorded %d of %d", rows[0].Latency.Count, ok)
	}
}

// The coordinated-omission property: when the server stalls and the
// outstanding bound forces arrivals to queue, queued requests are charged
// their whole wait from the intended send time. A closed-loop bencher would
// report every request at ~the service time; the open-loop runner must show
// the backlog in the tail.
func TestRunnerChargesStallsToLatency(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := okServer(t, service, nil)
	r, err := NewRunner(Options{
		BaseURL:        srv.URL,
		Client:         srv.Client(),
		Scenarios:      []Scenario{submitScenario("s")},
		Arrival:        uniform,
		MaxOutstanding: 1, // serialise: every arrival behind the first queues
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 arrivals intended over 100ms, each served in 30ms one at a time:
	// the last one runs ~200ms behind its intended send time.
	res, err := r.Run(context.Background(), []Phase{{Name: "stall", Duration: 100 * time.Millisecond, Rate: 100}})
	if err != nil {
		t.Fatal(err)
	}
	sum := res[0].Merged(Submit).Summary()
	if sum.Count < 8 {
		t.Fatalf("only %d samples", sum.Count)
	}
	if sum.Max < 5*service {
		t.Fatalf("max latency %v hides the queueing; closed-loop artifact", sum.Max)
	}
	if res[0].MaxLag < service {
		t.Fatalf("pacer lag %v not observed despite blocked semaphore", res[0].MaxLag)
	}
}

func TestRunnerCountsShedsAndRetryAfter(t *testing.T) {
	withHeader := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if withHeader {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	run := func() *PhaseResult {
		r, err := NewRunner(Options{
			BaseURL: srv.URL, Client: srv.Client(),
			Scenarios: []Scenario{submitScenario("s")}, Arrival: uniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background(), []Phase{{Name: "p", Duration: 50 * time.Millisecond, Rate: 200}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	res := run()
	_, shed, _, _ := res.Totals()
	if shed == 0 || res.ShedNoRetryAfter != 0 {
		t.Fatalf("shed=%d noRetryAfter=%d with header present", shed, res.ShedNoRetryAfter)
	}
	withHeader = false
	res = run()
	_, shed, _, _ = res.Totals()
	if shed == 0 || res.ShedNoRetryAfter != shed {
		t.Fatalf("shed=%d noRetryAfter=%d with header missing", shed, res.ShedNoRetryAfter)
	}
}

func TestRunnerProbeAuditAcked(t *testing.T) {
	var acked atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			acked.Add(1)
			fmt.Fprint(w, `{"txn":1,"warnings":0}`)
			return
		}
		fmt.Fprintf(w, `{"key":"Account/slo-check","fields":{"balance":%d}}`, acked.Load())
	}))
	t.Cleanup(srv.Close)
	r, err := NewRunner(Options{
		BaseURL: srv.URL, Client: srv.Client(),
		Scenarios:  []Scenario{submitScenario("s")},
		Arrival:    uniform,
		CheckEvery: 1, // every arrival probes
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), []Phase{{Name: "p", Duration: 50 * time.Millisecond, Rate: 200}}); err != nil {
		t.Fatal(err)
	}
	chk, err := r.VerifyAckedWrites(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if chk.Acked == 0 || chk.Acked != acked.Load() {
		t.Fatalf("acked %d, server applied %d", chk.Acked, acked.Load())
	}
	if !chk.OK {
		t.Fatalf("audit failed on a faithful server: %+v", chk)
	}
}

func TestRunnerProbeAuditCatchesLostAck(t *testing.T) {
	var acked atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			acked.Add(1) // acks...
			fmt.Fprint(w, `{"txn":1,"warnings":0}`)
			return
		}
		// ...but lost half of them.
		fmt.Fprintf(w, `{"key":"Account/slo-check","fields":{"balance":%d}}`, acked.Load()/2)
	}))
	t.Cleanup(srv.Close)
	r, err := NewRunner(Options{
		BaseURL: srv.URL, Client: srv.Client(),
		Scenarios: []Scenario{submitScenario("s")}, Arrival: uniform, CheckEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), []Phase{{Name: "p", Duration: 50 * time.Millisecond, Rate: 200}}); err != nil {
		t.Fatal(err)
	}
	chk, err := r.VerifyAckedWrites(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if chk.OK {
		t.Fatalf("audit passed despite lost acked writes: %+v", chk)
	}
}

func TestFaultTransportPartitionNeverReachesServer(t *testing.T) {
	var hits atomic.Uint64
	srv := okServer(t, 0, &hits)
	ft := NewFaultTransport(srv.Client().Transport, netsim.Config{UnreachableDelay: time.Millisecond})
	client := &http.Client{Transport: ft}

	resp, err := client.Get(srv.URL + "/entities/Account/a")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthy link failed: %v", err)
	}
	resp.Body.Close()

	tf := ft.Window(netsim.LinkFault{Block: true})
	if err := tf.Begin(); err != nil {
		t.Fatal(err)
	}
	before := hits.Load()
	_, err = client.Get(srv.URL + "/entities/Account/a")
	if err == nil || !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("partitioned request error = %v, want ErrUnreachable", err)
	}
	if !definitelyNotApplied(err) {
		t.Fatal("partition error not classified as definitely-not-applied")
	}
	if hits.Load() != before {
		t.Fatal("partitioned request reached the server")
	}
	if err := tf.End(); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(srv.URL + "/entities/Account/a")
	if err != nil {
		t.Fatalf("healed link still failing: %v", err)
	}
	resp.Body.Close()
}

func TestFaultTransportLossAndLatency(t *testing.T) {
	srv := okServer(t, 0, nil)
	ft := NewFaultTransport(srv.Client().Transport, netsim.Config{Seed: 3})
	client := &http.Client{Transport: ft}
	ft.setFault(netsim.LinkFault{Loss: 1.0})
	_, err := client.Get(srv.URL + "/x")
	if !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("full loss error = %v, want ErrDropped", err)
	}
	ft.setFault(netsim.LinkFault{ExtraLatency: 20 * time.Millisecond})
	startAt := time.Now()
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(startAt); d < 40*time.Millisecond {
		t.Fatalf("round trip %v did not pay 2x20ms extra latency", d)
	}
}

func TestScrapeMetricsParsesBothLineShapes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "counter core.apply = 123")
		fmt.Fprintln(w, "gauge queue.depth = 4")
		fmt.Fprintln(w, "histogram commit.latency: n=9 p50=1ms")
		fmt.Fprintln(w, "process.steps_executed 55")
		fmt.Fprintln(w, "queue.shed 7")
		fmt.Fprintln(w, "")
		fmt.Fprintln(w, "garbage line with no number")
	}))
	t.Cleanup(srv.Close)
	m, err := ScrapeMetrics(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core.apply": 123, "queue.depth": 4,
		"process.steps_executed": 55, "queue.shed": 7,
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("%s = %v, want %v (map: %v)", k, m[k], v, m)
		}
	}
	if _, found := m["commit.latency"]; found {
		t.Fatal("histogram line parsed as a scalar")
	}
}

// Package loadgen is the open-loop, coordinated-omission-safe load
// generator behind the end-to-end SLO harness (cmd/soupsbench, experiment
// E23). It drives internal/workload's business scenarios through soupsd's
// real HTTP surface at a fixed arrival rate and reports latency percentiles
// the way a production scoreboard would.
//
// Two decisions distinguish it from a naive closed-loop bencher:
//
//   - Arrivals are scheduled, not reactive. A schedule fixes every request's
//     intended send time up front (Poisson or uniform inter-arrival gaps), so
//     the offered load never slows down just because the system under test
//     did. A closed loop — issue, wait, issue — silently converts server
//     stalls into a lower request rate and under-reports tail latency
//     (coordinated omission).
//
//   - Latency is measured from the intended send time, not from the moment
//     the request finally left the client. When the system stalls and
//     arrivals queue behind it, every queued request is charged the stall it
//     would have experienced as a real user. See docs/BENCHMARKING.md.
//
// The package holds no per-entity client state: scenarios are pure functions
// of the request index (key-space striding, workload.Stride), so a run can
// simulate millions of entities with O(1) generator memory.
package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// probeScenario names the scoreboard row the acked-write probes land in.
const probeScenario = "probe"

// probeEntityPath is the soupsd path of the dedicated check entity the
// convergence audit increments. One entity, deltas of exactly +1: after the
// run, its balance bounds how many acked writes actually survived.
const probeEntityPath = "/entities/Account/slo-check"

// Fault is a fault window scheduled around one phase of a run: Begin fires
// before the phase's first arrival, End after its last in-flight request
// drains; either may be nil. Implementations inject client-side network
// faults (FaultTransport.Window), flip server-side storage faults, or kill
// the process under test.
type Fault struct {
	Begin, End func() error
}

// Phase is one segment of a soak run: offered load at a fixed rate for a
// fixed duration, optionally under a fault window.
type Phase struct {
	Name     string
	Duration time.Duration
	Rate     float64 // arrivals per second
	Fault    Fault
}

// Options configures a Runner.
type Options struct {
	// BaseURL is the soupsd endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests. Wrap its Transport in a FaultTransport to
	// schedule client-side network faults. Defaults to http.DefaultClient.
	Client *http.Client
	// Scenarios is the workload mix; arrivals round-robin across it.
	Scenarios []Scenario
	// Arrival selects the inter-arrival process (uniform or poisson).
	Arrival Arrival
	// Seed fixes the arrival gap sequence (scenario streams carry their own
	// seeds, set when the scenarios were built).
	Seed int64
	// MaxOutstanding bounds in-flight requests. When the system stalls and
	// the bound fills, the pacer blocks — and because latency is charged
	// from intended send times, that queueing is charged to the requests,
	// not hidden. Defaults to 512.
	MaxOutstanding int
	// Timeout bounds each request. Defaults to 5s.
	Timeout time.Duration
	// CheckEvery replaces every Nth arrival with a +1 delta on the check
	// entity (probeEntityPath) for the lost-acked-writes audit. 0 disables.
	CheckEvery uint64
}

// Runner paces an open-loop run through its phases.
type Runner struct {
	opts Options
	sem  chan struct{}

	// Acked-write audit counters, global across phases.
	probeAcked         atomic.Uint64
	probeIndeterminate atomic.Uint64
	probeFailed        atomic.Uint64
}

// NewRunner validates options and builds a Runner.
func NewRunner(opts Options) (*Runner, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	if len(opts.Scenarios) == 0 {
		return nil, errors.New("loadgen: at least one scenario required")
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.MaxOutstanding <= 0 {
		opts.MaxOutstanding = 512
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	return &Runner{opts: opts, sem: make(chan struct{}, opts.MaxOutstanding)}, nil
}

// bucketKey indexes a scoreboard cell.
type bucketKey struct {
	scenario string
	class    Class
}

// bucket accumulates one (scenario, class) cell of a phase. Latency is
// recorded only for served requests (2xx, and 404 on reads — a served miss is
// still a served read); sheds and errors are counted, not averaged into the
// service percentiles.
type bucket struct {
	hist     *metrics.Histogram
	ok       atomic.Uint64
	shed     atomic.Uint64
	notFound atomic.Uint64
	errs     atomic.Uint64
}

// PhaseResult is the scoreboard of one completed phase.
type PhaseResult struct {
	Name string
	Rate float64
	// Offered is the number of scheduled arrivals dispatched.
	Offered uint64
	// Wall is the measured phase wall time (pacing through drain).
	Wall time.Duration
	// MaxLag is the worst dispatch lateness behind the schedule — how far
	// the pacer itself fell behind (semaphore pressure or CPU starvation).
	MaxLag time.Duration
	// ShedNoRetryAfter counts 503 responses missing a Retry-After header;
	// the overload contract says it must be zero.
	ShedNoRetryAfter uint64

	mu      sync.Mutex
	buckets map[bucketKey]*bucket
}

func newPhaseResult(ph Phase) *PhaseResult {
	return &PhaseResult{Name: ph.Name, Rate: ph.Rate, buckets: make(map[bucketKey]*bucket)}
}

func (p *PhaseResult) bucket(scenario string, class Class) *bucket {
	k := bucketKey{scenario, class}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.buckets[k]
	if b == nil {
		b = &bucket{hist: metrics.NewHistogram()}
		p.buckets[k] = b
	}
	return b
}

// Row is one scoreboard line: a (phase, scenario, class) cell.
type Row struct {
	Phase    string
	Scenario string
	Class    Class
	OK       uint64
	Shed     uint64
	NotFound uint64
	Errors   uint64
	Latency  metrics.Summary
}

// Rows reduces the phase to scoreboard lines, sorted by scenario then class.
func (p *PhaseResult) Rows() []Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	rows := make([]Row, 0, len(p.buckets))
	for k, b := range p.buckets {
		rows = append(rows, Row{
			Phase:    p.Name,
			Scenario: k.scenario,
			Class:    k.class,
			OK:       b.ok.Load(),
			Shed:     b.shed.Load(),
			NotFound: b.notFound.Load(),
			Errors:   b.errs.Load(),
			Latency:  b.hist.Summary(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Scenario != rows[j].Scenario {
			return rows[i].Scenario < rows[j].Scenario
		}
		return rows[i].Class < rows[j].Class
	})
	return rows
}

// Totals sums the phase's counters across all cells.
func (p *PhaseResult) Totals() (ok, shed, notFound, errs uint64) {
	for _, r := range p.Rows() {
		ok += r.OK
		shed += r.Shed
		notFound += r.NotFound
		errs += r.Errors
	}
	return
}

// Merged folds every cell of one class across scenarios into one histogram —
// the per-class phase aggregate the SLO bounds are asserted against.
func (p *PhaseResult) Merged(class Class) *metrics.Histogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := metrics.NewHistogram()
	for k, b := range p.buckets {
		if k.class == class {
			out.Merge(b.hist)
		}
	}
	return out
}

// Run executes the phases in order. Each phase paces arrivals against its
// own schedule, drains in-flight requests after its last arrival, then runs
// the next phase — so every request is scored in the phase that offered it.
// Returns the completed phase results even on context cancellation.
func (r *Runner) Run(ctx context.Context, phases []Phase) ([]*PhaseResult, error) {
	var results []*PhaseResult
	var arrivals uint64 // global across phases: scenario streams keep advancing
	for pi, ph := range phases {
		res := newPhaseResult(ph)
		if ph.Fault.Begin != nil {
			if err := ph.Fault.Begin(); err != nil {
				return results, fmt.Errorf("phase %s: fault begin: %w", ph.Name, err)
			}
		}
		start := time.Now()
		sched := newSchedule(r.opts.Arrival, ph.Rate, start, r.opts.Seed+int64(pi))
		deadline := start.Add(ph.Duration)
		var wg sync.WaitGroup
	pace:
		for ctx.Err() == nil {
			intended := sched.Next()
			if intended.After(deadline) {
				break
			}
			if d := time.Until(intended); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					break pace
				}
			}
			if lag := time.Since(intended); lag > res.MaxLag {
				res.MaxLag = lag
			}
			// Acquiring the outstanding-request slot may block; the wait is
			// charged to the request because latency starts at intended.
			select {
			case r.sem <- struct{}{}:
			case <-ctx.Done():
				break pace
			}
			req := r.requestFor(arrivals)
			arrivals++
			res.Offered++
			wg.Add(1)
			go func(req Request, intended time.Time) {
				defer wg.Done()
				defer func() { <-r.sem }()
				r.issue(ctx, res, req, intended)
			}(req, intended)
		}
		wg.Wait()
		res.Wall = time.Since(start)
		if ph.Fault.End != nil {
			if err := ph.Fault.End(); err != nil {
				return append(results, res), fmt.Errorf("phase %s: fault end: %w", ph.Name, err)
			}
		}
		results = append(results, res)
	}
	return results, ctx.Err()
}

// requestFor builds the j-th arrival: round-robin across scenarios (each
// scenario sees a contiguous index stream), with every CheckEvery-th arrival
// diverted to the acked-write probe.
func (r *Runner) requestFor(j uint64) Request {
	if r.opts.CheckEvery > 0 && j%r.opts.CheckEvery == 0 {
		return Request{
			Scenario: probeScenario,
			Class:    Submit,
			Method:   http.MethodPost,
			Path:     probeEntityPath,
			Body:     `{"delta":{"balance":1},"describe":"slo probe"}`,
		}
	}
	n := uint64(len(r.opts.Scenarios))
	return r.opts.Scenarios[j%n].Request(j / n)
}

// issue sends one request and scores it. Latency is time.Since(intended):
// schedule lag, semaphore waits, connection stalls and service time all
// charge to the request, which is the coordinated-omission-safe measure.
func (r *Runner) issue(ctx context.Context, res *PhaseResult, req Request, intended time.Time) {
	b := res.bucket(req.Scenario, req.Class)
	isProbe := req.Scenario == probeScenario

	rctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(rctx, req.Method, r.opts.BaseURL+req.Path, body)
	if err != nil {
		b.errs.Add(1)
		return
	}
	if req.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.opts.Client.Do(hr)
	lat := time.Since(intended)
	if err != nil {
		b.errs.Add(1)
		if isProbe {
			if definitelyNotApplied(err) {
				r.probeFailed.Add(1)
			} else {
				// The request may have reached the server before the
				// connection died: applied-or-not is unknowable from here.
				r.probeIndeterminate.Add(1)
			}
		}
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		b.ok.Add(1)
		b.hist.Record(lat)
		if isProbe {
			r.probeAcked.Add(1)
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		b.shed.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			atomic.AddUint64(&res.ShedNoRetryAfter, 1)
		}
		if isProbe {
			r.probeFailed.Add(1)
		}
	case resp.StatusCode == http.StatusNotFound && req.Class != Submit:
		// A served miss: reads racing ahead of their writer, or keys whose
		// arrival was diverted to a probe. Served fast, scored as service.
		b.notFound.Add(1)
		b.hist.Record(lat)
	default:
		b.errs.Add(1)
		if isProbe {
			r.probeFailed.Add(1)
		}
	}
}

// definitelyNotApplied reports whether the error guarantees the request
// never reached the server: client-side injected faults and refused
// connections. Everything else is applied-or-not indeterminate.
func definitelyNotApplied(err error) bool {
	return errors.Is(err, netsim.ErrUnreachable) ||
		errors.Is(err, netsim.ErrDropped) ||
		errors.Is(err, syscall.ECONNREFUSED)
}

// ProbeCheck is the outcome of the lost-acked-writes audit: the client-side
// ledger of the probes against the check entity's final balance.
type ProbeCheck struct {
	// Acked probes got a 2xx: the server promised durability.
	Acked uint64
	// Indeterminate probes failed after possibly reaching the server.
	Indeterminate uint64
	// Failed probes definitely did not apply (refused, shed, dropped
	// client-side).
	Failed uint64
	// Balance is the check entity's final balance as served by soupsd.
	Balance float64
	// OK holds when Acked <= Balance <= Acked+Indeterminate: every acked
	// write survived, and nothing applied beyond what could have been sent.
	OK bool
}

// VerifyAckedWrites reads the check entity back and bounds its balance by
// the client ledger: acked writes are a floor (an acked +1 that is missing
// was lost — the durability violation the soak exists to catch), acked plus
// indeterminate a ceiling.
func (r *Runner) VerifyAckedWrites(ctx context.Context) (ProbeCheck, error) {
	out := ProbeCheck{
		Acked:         r.probeAcked.Load(),
		Indeterminate: r.probeIndeterminate.Load(),
		Failed:        r.probeFailed.Load(),
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.BaseURL+probeEntityPath, nil)
	if err != nil {
		return out, err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return out, fmt.Errorf("loadgen: read check entity: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && out.Acked == 0 {
		out.OK = out.Indeterminate >= 0 // nothing acked, nothing owed
		return out, nil
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("loadgen: read check entity: status %d", resp.StatusCode)
	}
	var state struct {
		Fields map[string]interface{} `json:"fields"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		return out, fmt.Errorf("loadgen: decode check entity: %w", err)
	}
	bal, _ := state.Fields["balance"].(float64)
	out.Balance = bal
	lo, hi := float64(out.Acked), float64(out.Acked+out.Indeterminate)
	out.OK = bal >= lo && bal <= hi
	return out, nil
}

// ScrapeMetrics fetches and parses soupsd's plain-text /metrics dump into a
// name→value map. Both line shapes are handled: the registry's
// "counter name = N" / "gauge name = N" and the handler's bare "name N";
// histogram lines are skipped.
func ScrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (map[string]float64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "histogram ") {
			continue
		}
		var name, value string
		if i := strings.Index(line, " = "); i >= 0 {
			left := strings.Fields(line[:i])
			name = left[len(left)-1]
			value = strings.TrimSpace(line[i+3:])
		} else {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			name, value = f[0], f[1]
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

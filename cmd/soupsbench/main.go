// Command soupsbench is the end-to-end SLO harness (experiment E23): an
// open-loop, coordinated-omission-safe load generator that drives soupsd's
// real HTTP surface with internal/workload's business scenarios at a fixed
// arrival rate, scores every (phase, scenario, operation-class) cell with an
// HDR-style histogram, and audits that no acked write was lost across a
// fault window.
//
// A run moves through phases — warmup → steady → fault → recovery — and the
// fault window can inject:
//
//	-fault latency     client-link extra latency (+ optional loss), netsim vocabulary
//	-fault partition   client link blocked; every request fails unreachable
//	-fault enospc      storage append failures via soupsd -fault-injection + POST /fault
//	-fault kill9       SIGKILL the managed soupsd, restart it, measure recovery-time-objective
//
// soupsbench either targets a running server (-target) or spawns and manages
// its own (-soupsd PATH); kill9 requires the managed form plus -data-dir so
// the restarted server recovers from its WAL.
//
// With -json the scoreboard is written as BENCH_E23.json trajectory tables
// (metrics.TableJSON). SLO bounds (-assert-p999, -assert-rto,
// -assert-convergence) turn violations into a non-zero exit for CI.
//
// Usage (bounded CI smoke):
//
//	soupsbench -soupsd ./bin/soupsd -entities 1000000 -rate 300 \
//	  -warmup 2s -steady 5s -fault-window 3s -recovery 4s \
//	  -fault partition -assert-convergence -assert-p999 2s -json BENCH_E23.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

var (
	target  = flag.String("target", "", "benchmark a running soupsd at this base URL (e.g. http://127.0.0.1:8080)")
	soupsd  = flag.String("soupsd", "", "spawn and manage this soupsd binary instead of targeting a running one")
	addr    = flag.String("addr", "127.0.0.1:8191", "listen address for the managed soupsd")
	dataDir = flag.String("data-dir", "", "data directory for the managed soupsd (required for -fault kill9)")
	fsync   = flag.String("fsync-mode", "", "fsync mode for the managed soupsd (kill9 defaults to always)")
	extra   = flag.String("soupsd-flags", "", "extra space-separated flags for the managed soupsd")

	scenarioList = flag.String("scenarios", "crm,banking,inventory,bookstore", "comma-separated scenario mix")
	entities     = flag.Uint64("entities", 1_000_000, "simulated entity key-space size per scenario (striding, no client state)")
	rate         = flag.Float64("rate", 1000, "offered arrivals per second (all scenarios combined)")
	arrivalFlag  = flag.String("arrival", "poisson", "inter-arrival process: poisson or uniform")
	seed         = flag.Int64("seed", 1, "seed for arrival gaps and scenario streams")

	warmup      = flag.Duration("warmup", 5*time.Second, "warmup phase duration (reported, not asserted)")
	steady      = flag.Duration("steady", 30*time.Second, "steady-state phase duration")
	faultWindow = flag.Duration("fault-window", 0, "fault phase duration (0 skips the fault and recovery phases)")
	recovery    = flag.Duration("recovery", 15*time.Second, "recovery phase duration after the fault heals")

	faultKind    = flag.String("fault", "none", "fault to inject during the fault window: none, latency, partition, enospc, kill9")
	faultLatency = flag.Duration("fault-latency", 50*time.Millisecond, "extra one-way latency for -fault latency")
	faultLoss    = flag.Float64("fault-loss", 0, "request loss fraction for -fault latency")

	maxOutstanding = flag.Int("max-outstanding", 512, "bound on in-flight requests (excess arrivals queue and are charged the wait)")
	reqTimeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
	checkEvery     = flag.Uint64("check-every", 64, "every Nth arrival probes the check entity for the acked-write audit (0 disables)")

	jsonOut     = flag.String("json", "", "write the scoreboard as BENCH_E23.json trajectory tables to this file")
	assertP999  = flag.Duration("assert-p999", 0, "fail unless steady-state submit p999 is below this bound")
	assertRTO   = flag.Duration("assert-rto", 0, "fail unless the measured kill9 recovery time is below this bound")
	assertConv  = flag.Bool("assert-convergence", false, "fail unless the acked-write audit passes after the final phase")
	assertRetry = flag.Bool("assert-retry-after", true, "fail if any 503 arrived without a Retry-After header")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatalf("soupsbench: %v", err)
	}
}

func run() error {
	arrival, err := loadgen.ParseArrival(*arrivalFlag)
	if err != nil {
		return err
	}
	scenarios, err := loadgen.Scenarios(*scenarioList, *entities, uint64(*seed))
	if err != nil {
		return err
	}
	if *target == "" && *soupsd == "" {
		return fmt.Errorf("need -target URL or -soupsd BINARY")
	}
	if *target != "" && *soupsd != "" {
		return fmt.Errorf("-target and -soupsd are mutually exclusive")
	}

	// Plain client for control traffic (readiness, /fault, /metrics, audit
	// read-back): control must bypass the injected client-side faults.
	plain := &http.Client{Timeout: 10 * time.Second, Transport: newPooledTransport()}

	var proc *managedSoupsd
	baseURL := *target
	if *soupsd != "" {
		baseURL = "http://" + *addr
		proc = &managedSoupsd{bin: *soupsd, args: managedArgs()}
		if err := proc.start(); err != nil {
			return err
		}
		defer proc.stop()
		if err := waitReady(plain, baseURL, 60*time.Second); err != nil {
			return fmt.Errorf("managed soupsd never became ready: %w", err)
		}
	}

	// Load client: pooled transport wrapped in the netsim-vocabulary fault
	// transport so latency/partition windows apply at the client edge.
	ft := loadgen.NewFaultTransport(newPooledTransport(), netsim.Config{Seed: *seed})
	loadClient := &http.Client{Transport: ft}

	fault, kill9, err := buildFault(ft, plain, proc, baseURL)
	if err != nil {
		return err
	}

	runner, err := loadgen.NewRunner(loadgen.Options{
		BaseURL:        baseURL,
		Client:         loadClient,
		Scenarios:      scenarios,
		Arrival:        arrival,
		Seed:           *seed,
		MaxOutstanding: *maxOutstanding,
		Timeout:        *reqTimeout,
		CheckEvery:     *checkEvery,
	})
	if err != nil {
		return err
	}

	var phases []loadgen.Phase
	if *warmup > 0 {
		phases = append(phases, loadgen.Phase{Name: "warmup", Duration: *warmup, Rate: *rate})
	}
	if *steady > 0 {
		phases = append(phases, loadgen.Phase{Name: "steady", Duration: *steady, Rate: *rate})
	}
	if *faultWindow > 0 && *faultKind != "none" {
		phases = append(phases, loadgen.Phase{Name: "fault", Duration: *faultWindow, Rate: *rate, Fault: fault})
		if *recovery > 0 {
			phases = append(phases, loadgen.Phase{Name: "recovery", Duration: *recovery, Rate: *rate})
		}
	}
	if len(phases) == 0 {
		return fmt.Errorf("no phases to run (all durations zero)")
	}

	before, berr := loadgen.ScrapeMetrics(context.Background(), plain, baseURL)
	if berr != nil {
		log.Printf("warning: pre-run /metrics scrape failed: %v", berr)
	}

	log.Printf("run: %s @ %.0f/s %s over %d entities, fault=%s", *scenarioList, *rate, arrival, *entities, *faultKind)
	results, err := runner.Run(context.Background(), phases)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var check loadgen.ProbeCheck
	if *checkEvery > 0 {
		check, err = runner.VerifyAckedWrites(ctx)
		if err != nil {
			return fmt.Errorf("acked-write audit read-back: %w", err)
		}
	}
	after, aerr := loadgen.ScrapeMetrics(ctx, plain, baseURL)
	if aerr != nil {
		log.Printf("warning: post-run /metrics scrape failed: %v", aerr)
	}

	tables, failures := report(results, check, kill9, before, after, berr == nil && aerr == nil)
	for _, tbl := range tables {
		fmt.Println(tbl.String())
	}
	if *jsonOut != "" {
		collected := make([]metrics.TableJSON, 0, len(tables))
		for _, tbl := range tables {
			collected = append(collected, metrics.TableAsJSON("E23", tbl))
		}
		if err := metrics.WriteTablesJSON(*jsonOut, collected); err != nil {
			return err
		}
		log.Printf("wrote %d table(s) to %s", len(collected), *jsonOut)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "SLO FAIL: "+f)
		}
		return fmt.Errorf("%d SLO assertion(s) failed", len(failures))
	}
	fmt.Println("all SLO assertions passed")
	return nil
}

// newPooledTransport builds a transport sized for open-loop fan-out: the
// default per-host idle cap of 2 would force connection churn at any real
// outstanding count.
func newPooledTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 1024
	t.DialContext = (&net.Dialer{Timeout: 2 * time.Second}).DialContext
	return t
}

// managedArgs assembles the argv for the managed soupsd from the flags.
func managedArgs() []string {
	args := []string{"-addr", *addr}
	if *dataDir != "" {
		args = append(args, "-data-dir", *dataDir)
	}
	fs := *fsync
	if fs == "" && *faultKind == "kill9" {
		// The audit asserts acked writes survive SIGKILL; only per-commit
		// fsync makes that promise.
		fs = "always"
	}
	if fs != "" {
		args = append(args, "-fsync-mode", fs)
	}
	if *faultKind == "enospc" {
		args = append(args, "-fault-injection")
	}
	if *extra != "" {
		args = append(args, strings.Fields(*extra)...)
	}
	return args
}

// buildFault wires the fault window implementation for -fault. Returns the
// kill9 fault separately so the report can read its measured RTO.
func buildFault(ft *loadgen.FaultTransport, plain *http.Client, proc *managedSoupsd, baseURL string) (loadgen.Fault, *kill9Fault, error) {
	switch *faultKind {
	case "none":
		return nil, nil, nil
	case "latency":
		return &loadgen.TransportFault{Transport: ft,
			Fault: netsim.LinkFault{ExtraLatency: *faultLatency, Loss: *faultLoss}}, nil, nil
	case "partition":
		return &loadgen.TransportFault{Transport: ft, Fault: netsim.LinkFault{Block: true}}, nil, nil
	case "enospc":
		if proc == nil && *target == "" {
			return nil, nil, fmt.Errorf("-fault enospc needs a server")
		}
		return &enospcFault{client: plain, baseURL: baseURL}, nil, nil
	case "kill9":
		if proc == nil {
			return nil, nil, fmt.Errorf("-fault kill9 requires a managed soupsd (-soupsd)")
		}
		if *dataDir == "" {
			return nil, nil, fmt.Errorf("-fault kill9 requires -data-dir: a memory-only server cannot honour acked writes across SIGKILL")
		}
		k := &kill9Fault{proc: proc, client: plain, baseURL: baseURL}
		return k, k, nil
	default:
		return nil, nil, fmt.Errorf("unknown -fault %q (want none, latency, partition, enospc, kill9)", *faultKind)
	}
}

// enospcFault opens a storage append-failure window on every unit via the
// server's POST /fault endpoint (-fault-injection).
type enospcFault struct {
	client  *http.Client
	baseURL string
}

func (f *enospcFault) post(action string) error {
	resp, err := f.client.Post(f.baseURL+"/fault", "application/json",
		strings.NewReader(fmt.Sprintf(`{"action":%q}`, action)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /fault %s: status %d (is soupsd running with -fault-injection?)", action, resp.StatusCode)
	}
	return nil
}

func (f *enospcFault) Begin() error { return f.post("enospc") }
func (f *enospcFault) End() error   { return f.post("heal") }

// kill9Fault SIGKILLs the managed soupsd at the start of the fault window,
// restarts it immediately, and measures the recovery-time-objective: SIGKILL
// to the first 200 from /readyz. Load keeps being offered throughout, so the
// scoreboard shows the outage as errors and charged tail latency.
type kill9Fault struct {
	proc    *managedSoupsd
	client  *http.Client
	baseURL string

	killedAt time.Time
	ready    chan error
	rto      time.Duration
}

func (f *kill9Fault) Begin() error {
	f.killedAt = time.Now()
	if err := f.proc.kill(); err != nil {
		return err
	}
	if err := f.proc.start(); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	f.ready = make(chan error, 1)
	go func() {
		err := waitReady(f.client, f.baseURL, 120*time.Second)
		if err == nil {
			f.rto = time.Since(f.killedAt)
		}
		f.ready <- err
	}()
	return nil
}

func (f *kill9Fault) End() error {
	if err := <-f.ready; err != nil {
		return fmt.Errorf("server never recovered from kill -9: %w", err)
	}
	return nil
}

// RTO returns the measured recovery time, or 0 if the fault never ran.
func (f *kill9Fault) RTO() time.Duration { return f.rto }

// managedSoupsd spawns and supervises the soupsd process under test.
type managedSoupsd struct {
	bin  string
	args []string
	cmd  *exec.Cmd
}

func (m *managedSoupsd) start() error {
	cmd := exec.Command(m.bin, m.args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", m.bin, err)
	}
	m.cmd = cmd
	return nil
}

func (m *managedSoupsd) kill() error {
	if m.cmd == nil || m.cmd.Process == nil {
		return fmt.Errorf("no managed process to kill")
	}
	if err := m.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = m.cmd.Wait()
	m.cmd = nil
	return nil
}

func (m *managedSoupsd) stop() {
	if m.cmd == nil || m.cmd.Process == nil {
		return
	}
	_ = m.cmd.Process.Kill()
	_ = m.cmd.Wait()
	m.cmd = nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(client *http.Client, baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("readyz still %d after %v", resp.StatusCode, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// report reduces the run to the E23 trajectory tables and evaluates the SLO
// assertions. metricsOK gates the /metrics cross-check (scrapes can
// legitimately fail mid-partition, and counters reset across kill9).
func report(results []*loadgen.PhaseResult, check loadgen.ProbeCheck, kill9 *kill9Fault,
	before, after map[string]float64, metricsOK bool) ([]*metrics.Table, []string) {

	var failures []string

	lat := metrics.NewTable("E23 — SLO scoreboard: latency by phase, scenario, operation class",
		"phase", "scenario", "class", "ok", "shed", "not_found", "errors", "p50", "p99", "p999", "max")
	for _, res := range results {
		for _, row := range res.Rows() {
			lat.AddRow(row.Phase, row.Scenario, row.Class.String(),
				row.OK, row.Shed, row.NotFound, row.Errors,
				row.Latency.P50, row.Latency.P99, row.Latency.P999, row.Latency.Max)
		}
	}

	ph := metrics.NewTable("E23 — phases: offered load and pacing health",
		"phase", "rate", "offered", "wall", "achieved/s", "max_pacer_lag", "503_wo_retry_after")
	var clientSheds uint64
	for _, res := range results {
		_, shed, _, _ := res.Totals()
		clientSheds += shed
		achieved := 0.0
		if res.Wall > 0 {
			achieved = float64(res.Offered) / res.Wall.Seconds()
		}
		ph.AddRow(res.Name, res.Rate, res.Offered, res.Wall.Round(time.Millisecond), achieved, res.MaxLag, res.ShedNoRetryAfter)
		if *assertRetry && res.ShedNoRetryAfter > 0 {
			failures = append(failures, fmt.Sprintf("phase %s: %d sheds without Retry-After", res.Name, res.ShedNoRetryAfter))
		}
	}

	// Steady-state submit p999 is the headline SLO.
	for _, res := range results {
		if res.Name != "steady" {
			continue
		}
		sum := res.Merged(loadgen.Submit).Summary()
		if *assertP999 > 0 && sum.P999 > *assertP999 {
			failures = append(failures, fmt.Sprintf("steady submit p999 %v > bound %v", sum.P999, *assertP999))
		}
	}

	fa := metrics.NewTable("E23 — fault window and recovery",
		"fault", "window", "rto_kill_to_ready")
	rto := "-"
	if kill9 != nil && kill9.RTO() > 0 {
		rto = kill9.RTO().Round(time.Millisecond).String()
		if *assertRTO > 0 && kill9.RTO() > *assertRTO {
			failures = append(failures, fmt.Sprintf("recovery time %v > bound %v", kill9.RTO(), *assertRTO))
		}
	} else if *assertRTO > 0 {
		failures = append(failures, "recovery time asserted but no kill9 RTO was measured")
	}
	fa.AddRow(*faultKind, *faultWindow, rto)

	conv := metrics.NewTable("E23 — acked-write audit (zero lost acked writes)",
		"acked", "indeterminate", "failed", "final_balance", "converged")
	conv.AddRow(check.Acked, check.Indeterminate, check.Failed, check.Balance, check.OK)
	if *assertConv {
		if *checkEvery == 0 {
			failures = append(failures, "convergence asserted but -check-every is 0")
		} else if !check.OK {
			failures = append(failures, fmt.Sprintf(
				"acked-write audit failed: acked=%d balance=%g indeterminate=%d (acked writes lost or phantom applies)",
				check.Acked, check.Balance, check.Indeterminate))
		}
	}

	xc := metrics.NewTable("E23 — /metrics cross-check (server-side counters vs client observations)",
		"client_503s", "server_shed_delta", "consistent")
	if metricsOK && *faultKind != "kill9" {
		serverDelta := (after["queue.shed"] - before["queue.shed"]) +
			(after["degraded.writes_refused"] - before["degraded.writes_refused"])
		// The server may shed requests from other clients too, so the client
		// count is a lower bound on the server's delta.
		consistent := float64(clientSheds) <= serverDelta+0.5
		xc.AddRow(clientSheds, serverDelta, consistent)
		if !consistent {
			failures = append(failures, fmt.Sprintf(
				"client saw %d 503s but server counters only moved by %.0f", clientSheds, serverDelta))
		}
	} else {
		xc.AddRow(clientSheds, "-", "skipped (kill9 resets counters or scrape failed)")
	}

	return []*metrics.Table{lat, ph, fa, conv, xc}, failures
}

// Command bench is the repository's benchmark: four closed-loop workloads
// measured end to end against a real soupsd child (or, for kernel_events, an
// in-process kernel), and a traced run that drives the same operations at
// successive depths of the stack to attribute the time layer by layer — all
// from outside the program, through its public functions, the seams it
// already exposes and the counters it already publishes. README.md has the
// workload and metric tables and how to read them.
//
// The driver runs it through run.sh as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. People read standard error
// (a table) and the self-describing record written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is one invocation's configuration.
type env struct {
	root    string
	soupsd  string
	outDir  string
	workDir string // scratch for data dirs and child logs; removed at exit
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
	buildS  float64
	ctl     *http.Client // control traffic: readiness, /metrics, /checkpoint, read-back
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what a workload run hands back.
type result struct {
	ops         int // operations completed in the timed phase
	attempted   int
	failed      int
	firstErr    string
	values      map[string]float64
	samples     map[string]int
	soupsdFlags []string
	flushPolicy string
	notes       []string
	spans       []span
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

// fail records verification or load failures.
func (r *result) fail(n int, format string, args ...interface{}) {
	r.failed += n
	if r.firstErr == "" && n > 0 {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// record is the self-describing document written under -out.
type record struct {
	Schema      string                 `json:"schema"`
	Workload    string                 `json:"workload"`
	Why         string                 `json:"why,omitempty"`
	Seed        uint64                 `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       int                    `json:"trace"`
	Scale       float64                `json:"scale"`
	Load        string                 `json:"load"`
	Ops         int                    `json:"ops"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Correct     bool                   `json:"correct"`
	FirstError  string                 `json:"first_error,omitempty"`
	NProc       int                    `json:"nproc"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	GoVersion   string                 `json:"go_version"`
	SoupsdFlags []string               `json:"soupsd_flags,omitempty"`
	FlushPolicy string                 `json:"flush_policy,omitempty"`
	Sizes       map[string]uint64      `json:"sizes"`
	Metrics     map[string]metricValue `json:"metrics"`
	SpanFile    string                 `json:"span_file,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Uint64("seed", 1, "seed of the request stream")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
		scale    = flag.Float64("scale", 1, "multiplies key spaces and warm-ups (tests use 0.01; gates are measured at 1)")
		out      = flag.String("out", "", "directory for run records and span files (default <root>/.bench_build/out)")
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		soupsd   = flag.String("soupsd", "", "soupsd binary (default <root>/.bench_build/bin/soupsd)")
		buildS   = flag.Float64("build-s", 0, "wall time run.sh spent building, reported as bench.build_s")
		compare  = flag.Bool("compare", false, "compare two sets of run records: -compare A B (files or directories)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two record files or directories")
			return 2
		}
		return compareMain(*root, flag.Arg(0), flag.Arg(1))
	}
	// Two clients and a server child share two cores; more Ps in the
	// generator would only add scheduler noise to the latencies it reports.
	runtime.GOMAXPROCS(2)

	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e := &env{root: abs, soupsd: *soupsd, outDir: *out, seed: *seed, seconds: *seconds,
		trace: *trace == 1, scale: *scale, buildS: *buildS,
		ctl: &http.Client{Timeout: 30 * time.Second}}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if e.soupsd == "" {
		e.soupsd = filepath.Join(abs, ".bench_build", "bin", "soupsd")
	}
	if e.outDir == "" {
		e.outDir = filepath.Join(abs, ".bench_build", "out")
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if e.seconds <= 0 || e.scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// Data dirs and child logs stay inside the checkout whatever -out says.
	scratch := filepath.Join(abs, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if e.workDir, err = os.MkdirTemp(scratch, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(e.workDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	res, err := run(e)
	if err != nil {
		// No result line: a run that could not be carried out (the server
		// never bound, a data dir could not be made) has no numbers to judge.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	rec, line, err := report(e, *workload, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(os.Stderr, rec)
	raw, _ := json.Marshal(line)
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

// report turns a workload's result into the run record (written under -out,
// with the span file when traced) and the contract line.
func report(e *env, workload string, res *result) (*record, *contractLine, error) {
	if res.attempted < 1 {
		return nil, nil, errors.New("no operation was attempted")
	}
	// BENCHMARK.json is the one list of metric names and units.
	spec, err := loadSpec(e.root)
	if err != nil {
		return nil, nil, err
	}
	defs := spec.EndToEnd
	if e.trace {
		defs = spec.PerLayer
	}
	rec := &record{
		Schema: "repro-bench/1", Workload: workload, Seed: e.seed, Seconds: e.seconds, Scale: e.scale,
		Load: fmt.Sprintf("closed loop, %d clients, zero think time", clients),
		Ops:  res.ops, Attempted: res.attempted, Failed: res.failed, Correct: res.failed == 0,
		FirstError: res.firstErr, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), SoupsdFlags: res.soupsdFlags, FlushPolicy: res.flushPolicy,
		Sizes: frozenSizes(), Metrics: map[string]metricValue{}, Notes: res.notes,
	}
	if e.trace {
		rec.Trace = 1
	}
	for _, w := range spec.Workloads {
		if w.Name == workload {
			rec.Why = w.Why
		}
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: res.values[d.Name], Unit: d.Unit, Samples: res.samples[d.Name]}
	}
	for name := range res.values {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("workload %s computed %q, which is not a declared metric of this mode", workload, name)
		}
	}
	stamp := fmt.Sprintf("%s-t%d-s%d-%d", workload, rec.Trace, e.seed, time.Now().UnixNano())
	if e.trace {
		rec.SpanFile = filepath.Join(e.outDir, "trace-"+workload+".json")
		if err := writeSpans(rec.SpanFile, res.spans); err != nil {
			return nil, nil, err
		}
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, "run-"+stamp+".json"), append(raw, '\n'), 0o644); err != nil {
		return nil, nil, err
	}
	line := &contractLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]metricValue{}}
	for name, v := range rec.Metrics {
		line.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return rec, line, nil
}

func frozenSizes() map[string]uint64 {
	return map[string]uint64{
		"clients": clients, "mem_entities": memEntities, "durable_entities": durableEntities,
		"cold_read_keys": coldReadKeys, "cold_write_keys": coldWriteKeys,
		"event_orders": eventOrders, "event_items": eventItems, "event_window": eventWindow,
		"warmup_mem": warmupMem, "warmup_durable": warmupDurable, "warmup_cold": warmupCold, "warmup_events": warmupEvents,
		"setup_repeats": setupRepeats,
	}
}

// printTable is the human-readable form of a record.
func printTable(w *os.File, rec *record) {
	fmt.Fprintf(w, "\n%s  seed=%d  seconds=%g  trace=%d  scale=%g  nproc=%d  %s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale, rec.NProc, rec.GoVersion)
	fmt.Fprintf(w, "load: %s\n", rec.Load)
	if len(rec.SoupsdFlags) > 0 {
		fmt.Fprintf(w, "soupsd flags: %v\n", rec.SoupsdFlags)
	}
	if rec.FlushPolicy != "" {
		fmt.Fprintf(w, "flush policy: %s\n", rec.FlushPolicy)
	}
	fmt.Fprintf(w, "ops=%d attempted=%d failed=%d correct=%v\n", rec.Ops, rec.Attempted, rec.Failed, rec.Correct)
	if rec.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", rec.FirstError)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-8s%s\n", n, v.Value, v.Unit, samples)
	}
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	if rec.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s\n", rec.SpanFile)
	}
}

package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/loadgen"
)

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}, {0.11, 20}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := sortedCopy([]int64{3, 1}, []int64{2}); !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("sortedCopy = %v", got)
	}
}

// The contract takes a metric's spread from Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates here; the clamp to the sample does too
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent, child, other := nameOf("t.parent"), nameOf("t.child"), nameOf("t.other")
	spans := []span{
		{Name: parent, Start: 0, End: 100, Parent: -1},  // 0
		{Name: child, Start: 10, End: 30, Parent: -1},   // 1: inside 0
		{Name: child, Start: 20, End: 50, Parent: -1},   // 2: inside 0, overlaps 1
		{Name: parent, Start: 40, End: 200, Parent: -1}, // 3: overlaps 0
		{Name: child, Start: 60, End: 90, Parent: -1},   // 4: inside both; 3 started last
		{Name: child, Start: 150, End: 250, Parent: -1}, // 5: sticks out of 3: background
		{Name: other, Start: 5, End: 6, Parent: -1},     // 6: not a child name
	}
	adopt(spans, map[spanName]bool{parent: true}, map[spanName]bool{child: true})
	want := []int32{-1, 0, 0, -1, 3, -1, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.Parent, want[i])
		}
	}
	// Span 0: 100 long, children cover [10,50) once: 60 self. Span 3: 160
	// long, child covers [60,90): 130 self.
	if got := selfTimes(spans, parent); !reflect.DeepEqual(got, []int64{60, 130}) {
		t.Errorf("selfTimes = %v, want [60 130]", got)
	}
	if got := covered([][2]int64{{-5, 5}, {3, 8}, {50, 70}}, 0, 60); got != 18 {
		t.Errorf("covered = %d, want 18", got)
	}
	if ds := durations(spans, child); total(ds) != 180 || len(ds) != 4 {
		t.Errorf("child spans last %d over %d calls, want 180 over 4", total(ds), len(ds))
	}
}

// streamsFor builds every HTTP workload's stream for a seed.
func streamsFor(t *testing.T, seed uint64) map[string]stream {
	t.Helper()
	mem, err := newMixedStream(2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := newDurableStream(2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]stream{
		wlMemMixed: mem, wlDurableWrite: dur,
		wlColdRead: &coldStream{seed: seed, reads: 5000, writes: 500},
	}
}

func transcript(st stream, n uint64) string {
	var out []byte
	for i := uint64(0); i < n; i++ {
		req, ok := st.at(i)
		out = append(out, fmt.Sprintf("%v %s %s %s\n", ok, req.Method, req.Path, req.Body)...)
	}
	return string(out)
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := streamsFor(t, 7), streamsFor(t, 7), streamsFor(t, 8)
	for name := range a {
		ta, tb, tc := transcript(a[name], 3000), transcript(b[name], 3000), transcript(c[name], 3000)
		if ta != tb {
			t.Errorf("%s: two builds of seed 7 differ", name)
		}
		if ta == tc {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
	ea, eb, ec := newEventStream(7, 500, 16), newEventStream(7, 500, 16), newEventStream(8, 500, 16)
	var sa, sb, sc []int
	for i := uint64(0); i < 3000; i++ {
		sa, sb, sc = append(sa, ea.item(i)), append(sb, eb.item(i)), append(sc, ec.item(i))
		if ea.order(i) != eb.order(i) {
			t.Fatalf("kernel_events: order %d differs between two builds", i)
		}
	}
	if !reflect.DeepEqual(sa, sb) || reflect.DeepEqual(sa, sc) {
		t.Errorf("kernel_events: item draws are not a function of the seed alone")
	}
	// Zipfian: item 0 is the hottest.
	hot := 0
	for _, it := range sa {
		if it == 0 {
			hot++
		}
	}
	if hot < len(sa)/8 {
		t.Errorf("kernel_events: item 0 drew %d of %d, want a hot head", hot, len(sa))
	}
}

func TestColdStreamReadsEachKeyOnce(t *testing.T) {
	cs := &coldStream{seed: 3, reads: 1000, writes: 100}
	seen := map[string]bool{}
	for i := uint64(0); ; i++ {
		req, ok := cs.at(i)
		if !ok {
			if i != cs.reads {
				t.Fatalf("stream ended at %d, want %d", i, cs.reads)
			}
			break
		}
		if req.Class != loadgen.Read {
			continue
		}
		if seen[req.Path] {
			t.Fatalf("request %d reads %s a second time", i, req.Path)
		}
		seen[req.Path] = true
	}
}

func TestDurableStreamReadsWrittenKeys(t *testing.T) {
	st, err := newDurableStream(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	reads := 0
	for i := uint64(0); i < 5000; i++ {
		req, _ := st.at(i)
		switch req.Class {
		case loadgen.Submit:
			written[req.Path] = true
		case loadgen.Read:
			reads++
			if !written[req.Path] {
				t.Fatalf("request %d reads %s before any write to it", i, req.Path)
			}
		default:
			t.Fatalf("request %d is a %v", i, req.Class)
		}
	}
	if reads < 300 || reads > 700 {
		t.Errorf("%d reads in 5000 requests, want about a tenth", reads)
	}
}

func TestExpectationFoldsSetsAndDeltas(t *testing.T) {
	want := expectation{}
	for _, body := range []string{`{"delta":{"balance":5}}`, `{"set":{"status":"NEW","n":3}}`, `{"delta":{"balance":-2},"describe":"x"}`, `{"set":{"status":"OLD"}}`} {
		if err := want.apply(loadgen.Request{Path: "/entities/A/1", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]interface{}{"balance": 3.0, "status": "OLD", "n": 3.0, "extra": true}
	if why := mismatch(want["/entities/A/1"], got); why != "" {
		t.Errorf("unexpected mismatch: %s", why)
	}
	got["balance"] = 4.0
	if mismatch(want["/entities/A/1"], got) == "" {
		t.Errorf("a wrong balance went unnoticed")
	}
}

// The traced backend must be taken for a tiered one, or rung 1 would run the
// legacy stop-the-world checkpoint path and measure something else.
func TestTracedBackendKeepsTheTieredPathOn(t *testing.T) {
	rec := newRecorder()
	backends, _, err := openTraced(t.TempDir(), repro.SyncOS, rec)
	if err != nil {
		t.Fatal(err)
	}
	k, err := repro.Bootstrap(repro.Options{Node: nodeName, Units: units, UnitBackends: backends}, repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for i := 0; i < 200; i++ {
		if _, err := k.Update(repro.Key{Type: "Account", ID: acctID(uint64(i))}, repro.Delta("balance", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts, fs, ok := k.TieredStats()
	if !ok || ts.Flushes == 0 || fs.Flushes == 0 {
		t.Fatalf("tiered=%v table flushes=%d store flushes=%d: the forced checkpoint did not flush through the tiered path", ok, ts.Flushes, fs.Flushes)
	}
	spans := rec.snapshot()
	if calls := len(durations(spans, spStoreAppend)); calls != 200 {
		t.Errorf("%d storage.append spans, want 200", calls)
	}
	if len(durations(spans, spLSMFlush)) == 0 {
		t.Errorf("no lsm.flush span after a forced checkpoint")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slower latency", steady, []float64{115, 116, 114, 115, 117}, "lower", "regression"},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, "lower", "ok"},
		{"lower throughput", steady, []float64{85, 86, 84, 85, 87}, "higher", "regression"},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 122}, "higher", "ok"},
		{"noisy", steady, []float64{80, 120, 100, 70, 130}, "lower", "unresolved"},
		{"single runs within the bound", []float64{100}, []float64{105}, "lower", "ok"},
	} {
		if _, _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// A run whose server is not there must fail, not report refused connections
// as throughput.
func TestDeadServerFailsTheRun(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	st := &coldStream{seed: 1, reads: 100, writes: 10}
	res := driveHTTP(newHTTPClient(), "http://"+addr, st, 0, 20, time.Time{}, nil, nil)
	if res.attempted != 20 || res.failed != 20 || res.served() != 0 {
		t.Errorf("attempted %d failed %d served %d against a closed port; want 20, 20, 0", res.attempted, res.failed, res.served())
	}
	if _, err := exec.LookPath("true"); err != nil {
		t.Skip("no `true` binary to stand in for a server that never binds")
	}
	e := &env{soupsd: "true", workDir: t.TempDir(), seconds: 0.1, scale: 0.01, seed: 1, ctl: &http.Client{Timeout: time.Second}}
	if _, err := runMemMixed(e); err == nil {
		t.Errorf("a soupsd that exits without binding did not fail the run")
	}
}

// soupsdForTests builds the real server once per test binary.
func soupsdForTests(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "soupsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/soupsd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building soupsd: %v\n%s", err, out)
	}
	return bin
}

// Every workload and metric BENCHMARK.json names is emitted by a smoke run,
// and nothing else is; every per-layer metric is computed by some workload.
func TestSmokeRunEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", declared, workloadNames)
	}
	if testing.Short() {
		t.Skip("smoke runs skipped in -short mode")
	}

	bin := soupsdForTests(t)
	computed := map[string]bool{} // metrics some workload set, as opposed to read 0 by default
	defer func() {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if !computed[m.Name] && !t.Failed() {
				t.Errorf("BENCHMARK.json declares %s, which no workload computes", m.Name)
			}
		}
	}()
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				e := &env{root: "..", soupsd: bin, outDir: t.TempDir(), workDir: t.TempDir(),
					seed: 42, seconds: 0.4, trace: trace == 1, scale: 0.01,
					ctl: &http.Client{Timeout: 30 * time.Second}}
				defer killAllChildren()
				res, err := workloads[w](e)
				if err != nil {
					t.Fatal(err)
				}
				rec, line, err := report(e, w, res)
				if err != nil {
					t.Fatal(err)
				}
				for name := range res.values {
					computed[name] = true
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", line.Correct, line.Attempted, line.Failed, rec.FirstError)
				}
				want := spec.EndToEnd
				if trace == 1 {
					want = spec.PerLayer
				}
				var wantNames, gotNames []string
				for _, m := range want {
					wantNames = append(wantNames, m.Name)
					if got := line.Metrics[m.Name]; got.Unit != m.Unit {
						t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				for name := range line.Metrics {
					gotNames = append(gotNames, name)
				}
				sort.Strings(wantNames)
				sort.Strings(gotNames)
				if !reflect.DeepEqual(wantNames, gotNames) {
					t.Errorf("emitted %v\nwant    %v", gotNames, wantNames)
				}
				if trace == 0 {
					for name, v := range line.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v; gated metrics must never be 0", name, v.Value)
						}
					}
				} else if _, err := os.Stat(rec.SpanFile); err != nil {
					t.Errorf("span file: %v", err)
				}
				if recs, err := loadRecords(e.outDir); err != nil || len(recs) != 1 || recs[0].Workload != w {
					t.Errorf("run record did not round-trip: %v %v", recs, err)
				}
			})
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// setupRepeats is how often a run sets a workload up from nothing; setup_s
// is the median, and the timed phase runs against the last one.
const setupRepeats = 3

// restartCycles is how often http_durable_write kills and restarts soupsd
// before it reads the data back.
const restartCycles = 5

// units is soupsd's -units in every workload, and the in-process kernels'.
const units = 4

// nodeName is the Node of every in-process kernel that must place keys as
// soupsd does: unit ids embed the node name and the placement ring hashes
// them, so a store preloaded under another name is unreadable to soupsd.
const nodeName = "soupsd"

var workloads = map[string]func(*env) (*result, error){
	wlMemMixed:     runMemMixed,
	wlDurableWrite: runDurableWrite,
	wlColdRead:     runColdRead,
	wlKernelEvents: runKernelEvents,
}

// httpSpec describes one of the three workloads that drive a soupsd child.
type httpSpec struct {
	name        string
	flags       []string // soupsd flags besides -addr and -data-dir
	durable     bool     // give every set-up a fresh -data-dir
	flushPolicy string
	kernel      repro.Options // the same configuration for the in-process rungs
	warmup      uint64
	stream      stream
	// preload fills a fresh data dir in-process before soupsd opens it and
	// returns the bytes of the equivalent request bodies.
	preload func(dir string) (int64, error)
	check   checker
	// verify reads data back once the timed phase (and any restarts) are
	// over; to is the end of the issued index range.
	verify   func(hc *http.Client, base string, to uint64, res *result)
	restarts int
}

// stage is one set-up: a ready, warmed server.
type stage struct {
	srv          *soupsd
	hc           *http.Client
	dir          string // "" when in-memory
	ladderDir    string // copy of the preloaded dir for the in-process rung
	preloadBytes int64
	warm         loadResult
}

func (s *httpSpec) setup(e *env, n int) (*stage, error) {
	st := &stage{hc: newHTTPClient()}
	args := append([]string(nil), s.flags...)
	if s.durable {
		st.dir = filepath.Join(e.workDir, fmt.Sprintf("data-%d", n))
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, err
		}
		if s.preload != nil {
			bytes, err := s.preload(st.dir)
			if err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			st.preloadBytes = bytes
			if e.trace {
				st.ladderDir = st.dir + "-ladder"
				if err := copyDir(st.dir, st.ladderDir); err != nil {
					return nil, err
				}
			}
		}
		args = append(args, "-data-dir", st.dir)
	}
	srv, err := startSoupsd(e.soupsd, args, filepath.Join(e.workDir, fmt.Sprintf("soupsd-%d.log", n)), e.ctl)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	st.warm = driveHTTP(st.hc, srv.base, s.stream, 0, s.warmup, time.Time{}, s.check, nil)
	if st.warm.failed > 0 {
		srv.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", st.warm.failed, st.warm.attempted, st.warm.firstErr)
	}
	return st, nil
}

func (st *stage) teardown() {
	st.srv.close()
	st.hc.CloseIdleConnections()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// runHTTP is the shared flow of the three HTTP workloads.
func runHTTP(e *env, s *httpSpec) (*result, error) {
	out := newResult()
	out.soupsdFlags = append([]string{"-addr", "127.0.0.1:<free port>"}, s.flags...)
	if s.durable {
		out.soupsdFlags = append(out.soupsdFlags, "-data-dir", "<fresh temp dir>")
	}
	out.flushPolicy = s.flushPolicy

	// Set-up, several times over; the tracer needs only one.
	repeats := setupRepeats
	if e.trace {
		repeats = 1
	}
	var st *stage
	var setups []float64
	for n := 0; n < repeats; n++ {
		if st != nil {
			st.teardown()
		}
		t0 := time.Now()
		var err error
		if st, err = s.setup(e, n); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.teardown()
	srv := st.srv

	// Timed phase.
	var rec *recorder
	seconds := e.seconds
	if e.trace {
		rec = newRecorder()
		seconds /= 2 // the in-process rungs replay the same operations afterwards
	}
	before, err := srv.scrape(e.ctl)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	childBefore, selfBefore := readProc(srv.pid()), selfCPU()
	load := driveHTTP(st.hc, srv.base, s.stream, s.warmup, 0, time.Now().Add(time.Duration(seconds*float64(time.Second))), s.check, rec)
	childAfter, selfAfter := readProc(srv.pid()), selfCPU()
	after, err := srv.scrape(e.ctl)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out.ops = load.served()
	out.attempted = load.attempted
	out.fail(load.failed, "%s", load.firstErr)
	if out.ops == 0 {
		return nil, fmt.Errorf("no request was served: %s", load.firstErr)
	}
	// The server's own count of refusals must cover the client's.
	refused := after["queue.shed"] + after["degraded.writes_refused"] - before["queue.shed"] - before["degraded.writes_refused"]
	if float64(load.shed) > refused {
		out.fail(1, "client saw %d 503s but /metrics accounts for %g refusals", load.shed, refused)
	}

	// Traced run: quiesce and weigh the data dir. (The untraced run leaves the
	// log tail uncheckpointed, so its kill -9 restarts replay it.)
	userBytes := st.preloadBytes + st.warm.userBytes + load.userBytes
	var diskBytes, walBytes int64
	quiesced := after
	if s.durable && e.trace {
		if quiesced, err = quiesce(e, srv); err != nil {
			return nil, err
		}
		diskBytes = dirBytes(st.dir, nil)
		walBytes = dirBytes(st.dir, func(name string) bool { return strings.HasPrefix(name, "wal-") })
	}

	// Durability: kill -9, restart, wait for readiness; then read back.
	var restartMS []float64
	for c := 0; c < s.restarts; c++ {
		t0 := time.Now()
		srv.kill()
		if err := srv.launch(e.ctl); err != nil {
			return nil, fmt.Errorf("restart %d after kill -9: %w", c+1, err)
		}
		restartMS = append(restartMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if s.restarts > 0 {
		st.hc.CloseIdleConnections()
		out.notes = append(out.notes, "kill -9 leaves the operating system's page cache intact, so the durability check (no acknowledged write lost across the restarts) is the sandbox's, not a storage device's")
	}
	s.verify(st.hc, srv.base, load.to, out)

	if !e.trace {
		out.set("throughput_ops_s", float64(load.served())/load.elapsed.Seconds(), load.served())
		sub, rd := load.lat[loadgen.Submit], load.lat[loadgen.Read]
		out.set("submit_p50_us", us(percentile(sub, 0.50)), len(sub))
		out.set("read_p50_us", us(percentile(rd, 0.50)), len(rd))
		out.set("setup_s", median(setups), len(setups))
		return out, nil
	}

	// Traced run: rung 0's numbers, then the in-process rungs.
	out.spans = load.spans
	sub, rd, qr := load.lat[loadgen.Submit], load.lat[loadgen.Read], load.lat[loadgen.Query]
	out.set("soupsd.rung0_submit_p50_us", us(percentile(sub, 0.50)), len(sub))
	out.set("soupsd.rung0_read_p50_us", us(percentile(rd, 0.50)), len(rd))
	out.set("soupsd.cpu_us_per_op", float64(childAfter.cpu-childBefore.cpu)/float64(time.Microsecond)/float64(load.served()), load.served())
	out.set("soupsd.peak_rss_mb", float64(childAfter.peakRSSKB)/1024, 0)
	out.set("soupsd.restart_ready_ms", median(restartMS), len(restartMS))
	out.set("soupsd.shed_503", float64(load.shed), 0)
	out.set("bench.build_s", e.buildS, 0)
	out.set("bench.client_cpu_s", (selfAfter - selfBefore).Seconds(), 0)
	out.set("bench.submit_p90_us", us(percentile(sub, 0.90)), len(sub))
	out.set("bench.submit_p99_us", us(percentile(sub, 0.99)), len(sub))
	out.set("bench.read_p90_us", us(percentile(rd, 0.90)), len(rd))
	out.set("bench.read_p99_us", us(percentile(rd, 0.99)), len(rd))
	out.set("bench.query_p50_us", us(percentile(qr, 0.50)), len(qr))
	all := sortedCopy(sub, rd, qr)
	out.set("bench.max_us", us(percentile(all, 1)), len(all))
	out.set("bench.failed_ratio", float64(out.failed)/float64(out.attempted), out.attempted)
	out.set("bench.not_found_ratio", float64(load.notFound)/float64(load.attempted), load.attempted)
	if s.durable && userBytes > 0 {
		out.set("storage.disk_bytes_per_user_byte", float64(diskBytes)/float64(userBytes), 0)
		out.set("storage.wal_bytes_end", float64(walBytes), 0)
		if timed := load.userBytes; timed > 0 {
			out.set("storage.write_bytes_per_user_byte", float64(childAfter.writeBytes-childBefore.writeBytes)/float64(timed), 0)
		}
		out.set("storage.write_syscalls_per_op", float64(childAfter.writeCalls-childBefore.writeCalls)/float64(load.served()), load.served())
		out.set("lsdb.flushes", after["lsm.flushes"]-before["lsm.flushes"], 0)
		out.set("lsdb.flush_stalls", after["lsm.flush_stalls"]-before["lsm.flush_stalls"], 0)
		out.set("lsdb.cold_reads", after["lsm.cold_reads"]-before["lsm.cold_reads"], 0)
		out.set("lsdb.cold_evicted", after["lsm.cold_evicted"]-before["lsm.cold_evicted"], 0)
		out.set("lsm.compactions", quiesced["lsm.compactions"]-before["lsm.compactions"], 0)
		out.set("lsm.l0_tables_end", quiesced["lsm.l0_tables"], 0)
		out.set("lsm.table_bytes_end", quiesced["lsm.table_bytes"], 0)
	}
	if err := runLadder(e, s, st, load.to, out); err != nil {
		return nil, err
	}
	return out, nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// quiesce forces a checkpoint and waits until background compaction has
// caught up, so the data dir is weighed in a settled state.
func quiesce(e *env, srv *soupsd) (map[string]float64, error) {
	resp, err := e.ctl.Post(srv.base+"/checkpoint", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("POST /checkpoint: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /checkpoint: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := srv.scrape(e.ctl)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
		if m["lsm.compaction_backlog"] == 0 {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("lsm.compaction_backlog still %g 30s after the checkpoint", m["lsm.compaction_backlog"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func copyDir(from, to string) error {
	if out, err := exec.Command("cp", "-r", from, to).CombinedOutput(); err != nil {
		return fmt.Errorf("cp -r %s %s: %v: %s", from, to, err, out)
	}
	return nil
}

// verifyFolded recomputes, from the requests issued in [0, to), what every
// written key must hold, and reads back every step-th written key.
func verifyFolded(st stream, step func(written int) int) func(hc *http.Client, base string, to uint64, res *result) {
	return func(hc *http.Client, base string, to uint64, res *result) {
		want := expectation{}
		var order []string
		for i := uint64(0); i < to; i++ {
			req, ok := st.at(i)
			if !ok || req.Class != loadgen.Submit {
				continue
			}
			if _, seen := want[req.Path]; !seen {
				order = append(order, req.Path)
			}
			if err := want.apply(req); err != nil {
				res.fail(1, "%v", err)
				return
			}
		}
		for n := 0; n < len(order); n += step(len(order)) {
			path := order[n]
			res.attempted++
			got, found, err := getFields(hc, base, path)
			switch {
			case err != nil:
				res.fail(1, "read-back %s: %v", path, err)
			case !found:
				res.fail(1, "read-back %s: acknowledged write lost (404)", path)
			default:
				if why := mismatch(want[path], got); why != "" {
					res.fail(1, "read-back %s: %s", path, why)
				}
			}
		}
	}
}

// --- http_mem_mixed ---------------------------------------------------------

func runMemMixed(e *env) (*result, error) {
	st, err := newMixedStream(scaled(memEntities, e.scale), e.seed)
	if err != nil {
		return nil, err
	}
	return runHTTP(e, &httpSpec{
		name:   wlMemMixed,
		flags:  []string{"-units", fmt.Sprint(units)},
		kernel: repro.Options{Node: nodeName, Units: units, MaxQueueDepth: 4096},
		warmup: scaled(warmupMem, e.scale),
		stream: st,
		// About a thousand keys, spread over the whole run.
		verify: verifyFolded(st, func(written int) int { return 1 + written/1000 }),
	})
}

// --- http_durable_write -----------------------------------------------------

// durableCheckpointEvery is -checkpoint-every for http_durable_write. The
// default (4096 records per unit) would see two flushes per unit in a 10 s
// phase and no compaction; 1024 gives each unit several flush cycles and at
// least one L0→L1 compaction, which is what the workload is for.
const durableCheckpointEvery = 1024

func runDurableWrite(e *env) (*result, error) {
	st, err := newDurableStream(scaled(durableEntities, e.scale), e.seed)
	if err != nil {
		return nil, err
	}
	return runHTTP(e, &httpSpec{
		name:        wlDurableWrite,
		flags:       []string{"-units", fmt.Sprint(units), "-fsync-mode", "always", "-groupcommit", "-checkpoint-every", fmt.Sprint(durableCheckpointEvery)},
		durable:     true,
		flushPolicy: "fsync-mode always: one fsync per commit cycle, amortised by group commit",
		kernel: repro.Options{Node: nodeName, Units: units, MaxQueueDepth: 4096, GroupCommit: true,
			Fsync: repro.SyncAlways, CheckpointEvery: durableCheckpointEvery},
		warmup:   scaled(warmupDurable, e.scale),
		stream:   st,
		verify:   verifyFolded(st, func(int) int { return 16 }),
		restarts: restartCycles,
	})
}

// --- http_tiered_coldread ---------------------------------------------------

// coldCheckpointEvery is -checkpoint-every for http_tiered_coldread: the
// deltas are a tenth of the traffic, and at the default they would not fill
// one flush per unit in the timed phase.
const coldCheckpointEvery = 512

func runColdRead(e *env) (*result, error) {
	cs := &coldStream{seed: e.seed, reads: scaled(coldReadKeys, e.scale), writes: scaled(coldWriteKeys, e.scale)}
	kernel := repro.Options{Node: nodeName, Units: units, MaxQueueDepth: 4096, GroupCommit: true,
		Fsync: repro.SyncOS, CheckpointEvery: coldCheckpointEvery}
	return runHTTP(e, &httpSpec{
		name:        wlColdRead,
		flags:       []string{"-units", fmt.Sprint(units), "-fsync-mode", "os", "-groupcommit", "-checkpoint-every", fmt.Sprint(coldCheckpointEvery)},
		durable:     true,
		flushPolicy: "fsync-mode os: flushing left to the page cache (preload included)",
		kernel:      kernel,
		warmup:      scaled(warmupCold, e.scale),
		stream:      cs,
		preload:     cs.preload,
		// Every read returns the balance the key was preloaded with: read and
		// write keys are disjoint.
		check: func(i uint64, req loadgen.Request, status int, body []byte) string {
			if req.Class != loadgen.Read {
				return ""
			}
			if status != http.StatusOK {
				return fmt.Sprintf("preloaded key answered %d", status)
			}
			var reply entityReply
			if err := json.Unmarshal(body, &reply); err != nil {
				return err.Error()
			}
			want := cs.preloadBalance(workload.Stride(i, cs.reads))
			if got := reply.Fields["balance"]; got != want {
				return fmt.Sprintf("balance: want %v, got %v", want, got)
			}
			return ""
		},
		verify: cs.verifyWrites,
	})
}

// preload creates every Account through an in-process kernel configured as
// soupsd will be, checkpoints, waits for compaction to settle, and closes;
// soupsd then recovers the accounts as cold pointers into the tables.
func (c *coldStream) preload(dir string) (int64, error) {
	k, err := repro.Bootstrap(repro.Options{Node: nodeName, Units: units, DataDir: dir,
		GroupCommit: true, Fsync: repro.SyncOS}, repro.StandardTypes()...)
	if err != nil {
		return 0, err
	}
	defer k.Close()
	total := c.reads + c.writes
	errs := make([]error, clients)
	bytes := make([]int64, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := uint64(w); a < total; a += clients {
				bal := c.preloadBalance(a)
				if _, err := k.Update(repro.Key{Type: "Account", ID: acctID(a)}, repro.Delta("balance", bal)); err != nil {
					errs[w] = err
					return
				}
				bytes[w] += int64(len(fmt.Sprintf(`{"delta":{"balance":%g}}`, bal)))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if err := k.Checkpoint(); err != nil {
		return 0, err
	}
	// The preload outruns the compactor. Let it catch up, or Close would wait
	// for whatever part of a pass happens to be left (1 to 2.6 s, measured)
	// and soupsd would inherit a backlog that differs from run to run.
	waitCompacted(k)
	return bytes[0] + bytes[1], nil
}

// verifyWrites reads back every 16th key the deltas landed on.
func (c *coldStream) verifyWrites(hc *http.Client, base string, to uint64, res *result) {
	sums := map[uint64]float64{}
	var order []uint64
	for i := uint64(0); i < to; i++ {
		if !c.isWrite(i) {
			continue
		}
		k := c.writeKey(i)
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += float64(1 + i%7)
	}
	for n := 0; n < len(order); n += 16 {
		k := order[n]
		res.attempted++
		got, found, err := getFields(hc, base, "/entities/Account/"+acctID(k))
		want := c.preloadBalance(k) + sums[k]
		switch {
		case err != nil:
			res.fail(1, "read-back %s: %v", acctID(k), err)
		case !found:
			res.fail(1, "read-back %s: lost (404)", acctID(k))
		case got["balance"] != want:
			res.fail(1, "read-back %s: balance want %v, got %v", acctID(k), want, got["balance"])
		}
	}
}

// Command soupsd runs one kernel node behind an HTTP/JSON API, so the system
// can be exercised from outside Go.
//
// Endpoints:
//
//	GET  /entities/{Type}/{ID}            current subjective state
//	POST /entities/{Type}/{ID}            apply operations: {"set":{"f":scalar}, "delta":{"f":n}, "describe":"..."}
//	POST /events                          submit a process-step event: {"name":..., "type":..., "id":..., "data":{...}, "deadline_ms":N}
//	GET  /history/{Type}/{ID}             insert-only version trace
//	GET  /warnings                        managed constraint violations so far
//	GET  /metrics                         kernel metric dump (plain text)
//	GET  /healthz                         liveness probe
//	GET  /readyz                          readiness: 503 while writes are degraded or shedding
//	GET  /status                          degraded/overload/breaker posture as JSON
//	GET  /backup                          portable JSON export of every unit's log
//	POST /restore                         replay a backup stream into a fresh node
//	POST /checkpoint                      force a storage checkpoint on every unit
//	POST /replicate                       receive one shipped WAL batch (standby role)
//	POST /promote                         standby takes over as primary
//
// Writes refused by admission control (per-unit queue past -max-queue-depth)
// or by a unit in degraded read-only mode answer 503 with a Retry-After
// header; reads keep serving either way. See the degraded-modes runbook in
// docs/OPERATIONS.md.
//
// Usage: soupsd [-addr :8080] [-units 4] [-workers 2]
//
//	[-groupcommit] [-maxbatch 64]
//	[-data-dir DIR] [-fsync-mode always|os] [-checkpoint-every 4096]
//	[-role primary|standby] [-standbys URL,URL] [-ack async|sync|quorum]
//	[-max-queue-depth 4096] [-retry-after 1s] [-debug-addr ADDR]
//
// With -data-dir the node is durable: every commit cycle is appended to a
// segmented write-ahead log per unit, startup recovers from the latest
// checkpoint plus the log tail (truncating a torn final record if the
// previous process died mid-write), and SIGINT/SIGTERM flush before exit.
//
// With -standbys the primary also ships every commit cycle to the listed
// standby processes (-ack picks async, sync or quorum acknowledgement). A
// -role standby process serves only /replicate, /metrics and /healthz until
// POST /promote recovers a full kernel from the received log; see
// docs/OPERATIONS.md for the failover runbook.
//
// The data port is served by conn.go's HTTP/1.1 connection loop, not by
// net/http's server. With -debug-addr the process also serves net/http/pprof
// under /debug/pprof/ on that address, a net/http listener of its own: the
// data port never does.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, which only -debug-addr serves
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/lsdb"
	"repro/internal/queue"
	"repro/internal/storage"
)

var (
	addr            = flag.String("addr", ":8080", "listen address")
	units           = flag.Int("units", 4, "number of serialization units")
	workers         = flag.Int("workers", 0, "process-step workers per unit in the work-stealing pool (0 = default 2)")
	groupCommit     = flag.Bool("groupcommit", false, "batch concurrent appends via per-shard group commit")
	maxBatch        = flag.Int("maxbatch", 0, "max appends per group-commit batch (0 = default 64)")
	dataDir         = flag.String("data-dir", "", "durable mode: write-ahead log + checkpoint directory (empty = in-memory)")
	fsyncMode       = flag.String("fsync-mode", "os", "WAL durability: always (fsync per commit cycle) or os (page cache)")
	ckptEvery       = flag.Int("checkpoint-every", 4096, "records per unit between automatic checkpoints/flushes (-1 disables)")
	flushBytes      = flag.Int64("flush-bytes", 0, "bytes of committed records per unit between tiered background flushes (0 = default 4 MiB, -1 disables the byte trigger)")
	compactAfter    = flag.Int("compaction-after", 0, "level-0 SSTables per unit before background compaction merges them (0 = default 4)")
	compactThrottle = flag.Duration("compaction-throttle", 0, "compactor pause per 64 KiB of merged output, and while a flush is writing (0 = default 500µs, -1ns disables)")
	noTiered        = flag.Bool("no-tiered-storage", false, "disable the LSM tier: bare WAL with stop-the-world checkpoints (E22 baseline)")
	maxDepth        = flag.Int("max-queue-depth", 4096, "admission control: shed event submits past this per-unit queue depth with 503 (0 = unbounded)")
	retryAfter      = flag.Duration("retry-after", time.Second, "Retry-After hint on 503 backpressure/degraded responses")
	debugAddr       = flag.String("debug-addr", "", "serve net/http/pprof on this address, a listener apart from -addr (empty = off)")
	faultInjection  = flag.Bool("fault-injection", false, "benchmark harness only: run each unit on an in-memory fault-injecting backend and expose POST /fault (incompatible with -data-dir)")
)

// server is one soupsd node: in the primary role kernel is set; in the
// standby role standby is set until a promotion swaps a recovered kernel in.
// mu orders the promotion against the routes that ask which role is live; the
// data path only loads kernel.
type server struct {
	mu      sync.Mutex
	kernel  atomic.Pointer[repro.Kernel]
	standby *standbyReceiver
}

// k returns the live kernel, or nil while this node is an unpromoted standby.
func (s *server) k() *repro.Kernel { return s.kernel.Load() }

// dataKernel resolves the kernel for a data-path request, answering 503 for
// an unpromoted standby (the data lives in its received log, unopened).
func (s *server) dataKernel(w http.ResponseWriter) *repro.Kernel {
	k := s.k()
	if k == nil {
		http.Error(w, "standby: not serving data (POST /promote to take over)", http.StatusServiceUnavailable)
	}
	return k
}

// openKernel bootstraps a kernel from the command-line flags. The promotion
// path reuses it: a promoted standby is configured exactly like a primary
// started over the same data directory.
func openKernel() (*repro.Kernel, error) {
	sync, err := storage.ParseSyncMode(*fsyncMode)
	if err != nil {
		return nil, err
	}
	repl, err := replicationFromFlags()
	if err != nil {
		return nil, err
	}
	opts := repro.Options{
		Node: "soupsd", Units: *units, Workers: *workers,
		GroupCommit: *groupCommit, MaxAppendBatch: *maxBatch,
		DataDir: *dataDir, Fsync: sync, CheckpointEvery: *ckptEvery,
		FlushBytes: *flushBytes, CompactAfter: *compactAfter,
		CompactThrottle: *compactThrottle, DisableTiered: *noTiered,
		MaxQueueDepth: *maxDepth,
		Replication:   repl,
	}
	if *faultInjection {
		if *dataDir != "" {
			return nil, errors.New("-fault-injection is in-memory only; it cannot wrap a -data-dir store")
		}
		faultBackends = faultBackends[:0]
		backends := make([]storage.Backend, *units)
		for i := range backends {
			fb := storage.NewFaultBackend(storage.NewMemory())
			faultBackends = append(faultBackends, fb)
			backends[i] = fb
		}
		opts.UnitBackends = backends
	}
	return repro.Bootstrap(opts, repro.StandardTypes()...)
}

// faultBackends is populated by openKernel when -fault-injection is set;
// handleFault drives it. Written once at bootstrap before the listener
// starts (or under server.mu on promotion), read by the handler.
var faultBackends []*storage.FaultBackend

func main() {
	flag.Parse()
	s := &server{}
	switch *role {
	case "primary":
		k, err := openKernel()
		if err != nil {
			log.Fatalf("bootstrap: %v", err)
		}
		k.Start()
		s.kernel.Store(k)
	case "standby":
		sync, err := storage.ParseSyncMode(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		recv, err := openStandbyReceiver(*dataDir, *units, sync)
		if err != nil {
			log.Fatal(err)
		}
		s.standby = recv
	default:
		log.Fatalf("unknown -role %q (want primary or standby)", *role)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := newDataServer(s.routes())
	var debug *http.Server
	if *debugAddr != "" {
		debug = &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	// Durable shutdown: stop accepting traffic, then flush the write-ahead
	// logs before the process exits. A hard kill is also fine — that is what
	// recovery is for — but a polite signal should not rely on it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down: flushing storage")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if debug != nil {
			_ = debug.Close()
		}
		s.shutdownNode()
	}()

	durable := "in-memory"
	if *dataDir != "" {
		durable = fmt.Sprintf("data-dir=%s fsync=%s", *dataDir, *fsyncMode)
	}
	if s.k() != nil {
		repl := "replication off"
		if rs := s.k().ReplicaStats(); rs.Enabled {
			repl = fmt.Sprintf("shipping to %d standbys ack=%s", rs.Standbys, rs.Mode)
		}
		log.Printf("soupsd primary listening on %s (units=%d groupcommit=%v %s, %s)",
			*addr, *units, *groupCommit, durable, repl)
	} else {
		log.Printf("soupsd standby listening on %s (units=%d %s); POST /promote to take over", *addr, *units, durable)
	}
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	s.closeNode()
}

// routes is the data port's mux. It is built here, never taken from
// http.DefaultServeMux, so nothing a package registers there (net/http/pprof)
// is reachable on -addr.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/entities/", s.handleEntity)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/history/", s.handleHistory)
	mux.HandleFunc("/warnings", s.handleWarnings)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/fault", s.handleFault)
	mux.HandleFunc("/backup", s.handleBackup)
	mux.HandleFunc("/restore", s.handleRestore)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/replicate", s.handleReplicate)
	mux.HandleFunc("/catchup", s.handleCatchup)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/status", s.handleStatus)
	return mux
}

// roles returns whichever of the two roles is live.
func (s *server) roles() (*repro.Kernel, *standbyReceiver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kernel.Load(), s.standby
}

// shutdownNode flushes whichever role is live at signal time.
func (s *server) shutdownNode() {
	k, recv := s.roles()
	if k != nil {
		if err := k.Flush(); err != nil {
			log.Printf("flush: %v", err)
		}
	}
	if recv != nil {
		if err := recv.close(); err != nil {
			log.Printf("closing standby receivers: %v", err)
		}
	}
}

// closeNode releases the kernel after the listener has drained.
func (s *server) closeNode() {
	if k := s.k(); k != nil {
		k.Stop()
		k.Close()
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	k, recv := s.roles()
	if recv != nil {
		fmt.Fprintln(w, "ok (standby)")
		return
	}
	// Background storage failures (a stopped automatic checkpoint, an
	// unlogged compaction mark) do not fail any request; the probe is
	// where they must surface.
	if err := k.StorageErr(); err != nil {
		http.Error(w, "degraded: "+err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "ok")
}

// parseKey extracts "Type/ID" from a path like /entities/Type/ID.
func parseKey(path, prefix string) (repro.Key, error) {
	typ, id, ok := strings.Cut(strings.TrimPrefix(path, prefix), "/")
	if !ok || typ == "" || id == "" {
		return repro.Key{}, fmt.Errorf("path must be %sType/ID", prefix)
	}
	return repro.Key{Type: typ, ID: id}, nil
}

func (s *server) handleEntity(w http.ResponseWriter, r *http.Request) {
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	key, err := parseKey(r.URL.Path, "/entities/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		st, err := k.Read(key)
		if errors.Is(err, lsdb.ErrNotFound) {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		buf := getEdgeBuf()
		defer putEdgeBuf(buf)
		reply, err := buf.stateReply(key, st)
		if err != nil {
			http.Error(w, "encoding "+key.String()+": "+err.Error(), http.StatusInternalServerError)
			return
		}
		sendJSON(w, http.StatusOK, reply)
	case http.MethodPost:
		buf := getEdgeBuf()
		defer putEdgeBuf(buf)
		if err := buf.readBody(w, r); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "reading body: "+err.Error(), status)
			return
		}
		ops, err := buf.decodeOps()
		if err != nil {
			http.Error(w, "malformed body: "+err.Error(), http.StatusBadRequest)
			return
		}
		res, err := k.Update(key, ops...)
		if shedResponse(w, err) {
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		sendJSON(w, http.StatusOK, buf.updateReply(res.TxnID, len(res.Warnings)))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// shedResponse maps backpressure and degraded-storage refusals onto 503 with
// a Retry-After hint, so load balancers and clients back off instead of
// treating shed writes as hard failures. Returns true if it wrote a response.
func shedResponse(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, queue.ErrOverloaded) || errors.Is(err, lsdb.ErrDegraded) {
		w.Header().Set("Retry-After", strconv.Itoa(int((*retryAfter).Seconds())))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return true
	}
	return false
}

type eventRequest struct {
	Name       string                 `json:"name"`
	Type       string                 `json:"type"`
	ID         string                 `json:"id"`
	Data       map[string]interface{} `json:"data,omitempty"`
	DeadlineMS int64                  `json:"deadline_ms,omitempty"`
}

// handleEvents submits one process-step event through admission control. A
// deadline_ms budget travels with the event: work still queued past it is
// dropped instead of executed.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	var req eventRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "malformed body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Name == "" || req.Type == "" || req.ID == "" {
		http.Error(w, "name, type and id are required", http.StatusBadRequest)
		return
	}
	ev := repro.Event{
		Name:   req.Name,
		Entity: repro.Key{Type: req.Type, ID: req.ID},
		Data:   req.Data,
	}
	if req.DeadlineMS > 0 {
		ev.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	if err := k.Submit(ev); err != nil {
		if shedResponse(w, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sendJSON(w, http.StatusAccepted, acceptedReply)
}

// handleReadyz is the readiness probe: unlike /healthz (liveness) it answers
// 503 while any unit refuses writes, so rotations drain traffic from a node
// that is up but degraded.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	k, recv := s.roles()
	if recv != nil {
		fmt.Fprintln(w, "ok (standby)")
		return
	}
	h := k.Health()
	if !h.WritesOK {
		w.Header().Set("Retry-After", strconv.Itoa(int((*retryAfter).Seconds())))
		reason := "degraded"
		for _, u := range h.Units {
			if u.Degraded {
				reason = fmt.Sprintf("%s degraded (%s)", u.Unit, u.Reason)
				break
			}
		}
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	if err := k.StorageErr(); err != nil {
		http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStatus reports the node's degraded/overload/breaker posture as JSON
// (soupsctl status renders it).
func (s *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	k, recv := s.roles()
	if recv != nil {
		writeJSON(w, http.StatusOK, map[string]interface{}{"role": "standby"})
		return
	}
	out := map[string]interface{}{
		"role":   "primary",
		"health": k.Health(),
	}
	if rs := k.ReplicaStats(); rs.Enabled {
		out["replication"] = rs
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	key, err := parseKey(r.URL.Path, "/history/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h, err := k.History(key)
	if errors.Is(err, lsdb.ErrNotFound) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	buf := getEdgeBuf()
	defer putEdgeBuf(buf)
	sendJSON(w, http.StatusOK, buf.historyReply(h.Trace()))
}

func (s *server) handleWarnings(w http.ResponseWriter, _ *http.Request) {
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	var out []string
	for _, warning := range k.Warnings() {
		out = append(out, warning.String())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBackup streams a portable export of the whole node (the same codec
// soupsctl backup/restore move around).
func (s *server) handleBackup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := k.Export(w); err != nil {
		// Headers are gone; all we can do is log and cut the stream short.
		log.Printf("backup: %v", err)
	}
}

// handleRestore replays an export stream into this node. The node should be
// freshly started with the same unit count; durable nodes checkpoint the
// imported content before answering.
func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	if err := k.Import(r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}

// handleCheckpoint forces a storage checkpoint on every unit.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	k := s.dataKernel(w)
	if k == nil {
		return
	}
	if err := k.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "checkpointed"})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	k, recv := s.roles()
	if recv != nil {
		s.replicationMetrics(w, nil, recv)
		return
	}
	fmt.Fprintln(w, k.Metrics().Dump())
	// Step-pool scheduling counters, aggregated across units (peak lane
	// depth is the maximum over units). See docs/OPERATIONS.md for how to
	// read them.
	ps := k.ProcessStats()
	fmt.Fprintf(w, "process.steps_executed %d\n", ps.StepsExecuted)
	fmt.Fprintf(w, "process.steps_failed %d\n", ps.StepsFailed)
	fmt.Fprintf(w, "process.retries %d\n", ps.Retries)
	fmt.Fprintf(w, "process.compensations %d\n", ps.Compensations)
	fmt.Fprintf(w, "process.collapsed %d\n", ps.Collapsed)
	fmt.Fprintf(w, "process.lane_steals %d\n", ps.LaneSteals)
	fmt.Fprintf(w, "process.peak_lane_depth %d\n", ps.PeakLaneDepth)
	fmt.Fprintf(w, "process.keyed_dequeues %d\n", ps.KeyedDequeues)
	fmt.Fprintf(w, "process.queue_depth %d\n", k.QueueDepth())
	fmt.Fprintf(w, "process.deadline_dropped %d\n", ps.DeadlineDropped)
	// Degraded-modes posture: admission-control sheds, units refusing writes
	// and write attempts bounced off read-only units.
	h := k.Health()
	fmt.Fprintf(w, "queue.shed %d\n", h.QueueShed)
	fmt.Fprintf(w, "degraded.units %d\n", h.DegradedUnits)
	fmt.Fprintf(w, "degraded.writes_refused %d\n", h.WritesRefused)
	// LSM tier posture: table layout, bloom effectiveness, flush/compaction
	// pipeline health (summed across units). Absent on in-memory kernels.
	if ts, fs, ok := k.TieredStats(); ok {
		fmt.Fprintf(w, "lsm.levels %d\n", ts.Levels)
		fmt.Fprintf(w, "lsm.tables %d\n", ts.Tables)
		fmt.Fprintf(w, "lsm.l0_tables %d\n", ts.L0Tables)
		fmt.Fprintf(w, "lsm.table_keys %d\n", ts.TableKeys)
		fmt.Fprintf(w, "lsm.table_bytes %d\n", ts.Bytes)
		fmt.Fprintf(w, "lsm.bloom_hits %d\n", ts.BloomHits)
		fmt.Fprintf(w, "lsm.bloom_skips %d\n", ts.BloomSkips)
		fmt.Fprintf(w, "lsm.bloom_false_positives %d\n", ts.BloomFalse)
		fmt.Fprintf(w, "lsm.compactions %d\n", ts.Compactions)
		fmt.Fprintf(w, "lsm.compaction_failures %d\n", ts.CompactFailures)
		fmt.Fprintf(w, "lsm.compaction_backlog %d\n", ts.CompactionBacklog)
		fmt.Fprintf(w, "lsm.wal_prune_skips %d\n", ts.WALPruneSkips)
		fmt.Fprintf(w, "lsm.wal_prune_errors %d\n", ts.WALPruneErrors)
		fmt.Fprintf(w, "lsm.flushes %d\n", fs.Flushes)
		fmt.Fprintf(w, "lsm.flush_failures %d\n", fs.Failures)
		fmt.Fprintf(w, "lsm.flush_stalls %d\n", fs.Stalls)
		fmt.Fprintf(w, "lsm.flush_pending_bytes %d\n", fs.PendingBytes)
		fmt.Fprintf(w, "lsm.cold_evicted %d\n", fs.Evicted)
		fmt.Fprintf(w, "lsm.cold_reads %d\n", fs.ColdReads)
	}
	s.replicationMetrics(w, k, nil)
}

// faultRequest is the POST /fault body: action "enospc" opens a retryable
// append-failure window on every unit's backend (appends bounds it, default
// unbounded until healed), action "heal" closes it.
type faultRequest struct {
	Action  string `json:"action"`
	Appends int    `json:"appends,omitempty"`
}

// handleFault drives the -fault-injection backends so an external benchmark
// driver (cmd/soupsbench) can align storage fault windows with its load
// phases. 404 unless the server was started with -fault-injection.
func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	if len(faultBackends) == 0 {
		http.Error(w, "fault injection not enabled (start soupsd with -fault-injection)", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req faultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch strings.ToLower(req.Action) {
	case "enospc":
		n := req.Appends
		if n <= 0 {
			n = int(^uint(0) >> 1) // until healed
		}
		for _, fb := range faultBackends {
			fb.FailAppends(n)
		}
	case "heal":
		for _, fb := range faultBackends {
			fb.Heal()
		}
	default:
		http.Error(w, fmt.Sprintf("unknown action %q (want enospc or heal)", req.Action), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "action": strings.ToLower(req.Action)})
}

// writeJSON answers status with v as the JSON body, for the admin routes (the
// data path's replies are built in codec.go). Headers are final once the
// status line is written, so the Content-Type goes first.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

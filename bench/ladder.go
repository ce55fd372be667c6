package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/loadgen"
	"repro/internal/lsdb"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The traced run is a ladder: the operations the HTTP rung (rung 0) issued
// are replayed in-process at successive depths — the kernel over traced
// storage backends (rung 1), a bare lsdb store (rung 2), entity.Apply alone
// (rung 3) — and a layer's self time is its rung's median minus the next
// rung's. Every span is taken here, around calls into the program's public
// functions and at the storage seam core.Options.UnitBackends exposes;
// nothing inside the program is instrumented.

// tracedTiered is the bench-owned storage backend of rung 1: the real tiered
// store (lsm over a WAL) with a span and a count around every call the store
// above makes into it. Embedding the concrete store delegates the rest —
// storage.Tiered and the optional Quarantiner/Streamer/ReplicationMarker
// interfaces lsdb and replica look for with type assertions.
type tracedTiered struct {
	*lsm.Store
	rec      *recorder
	appended atomic.Int64 // records over all AppendBatch calls
}

var _ storage.Tiered = (*tracedTiered)(nil)

func (t *tracedTiered) AppendBatch(recs []storage.WALRecord) error {
	start := t.rec.now()
	err := t.Store.AppendBatch(recs)
	t.rec.add(spStoreAppend, start, t.rec.now(), -1)
	t.appended.Add(int64(len(recs)))
	return err
}

func (t *tracedTiered) Sync() error {
	start := t.rec.now()
	err := t.Store.Sync()
	t.rec.add(spStoreSync, start, t.rec.now(), -1)
	return err
}

func (t *tracedTiered) SealWAL() (uint64, error) {
	start := t.rec.now()
	boundary, err := t.Store.SealWAL()
	t.rec.add(spLSMSeal, start, t.rec.now(), -1)
	return boundary, err
}

func (t *tracedTiered) FlushTable(entries []storage.WALRecord, watermark, boundary uint64) error {
	start := t.rec.now()
	err := t.Store.FlushTable(entries, watermark, boundary)
	t.rec.add(spLSMFlush, start, t.rec.now(), -1)
	return err
}

func (t *tracedTiered) LookupSummary(key entity.Key) (*storage.WALRecord, error) {
	start := t.rec.now()
	rec, err := t.Store.LookupSummary(key)
	t.rec.add(spLSMLookup, start, t.rec.now(), -1)
	return rec, err
}

// openTraced opens one traced tiered backend per unit under dir, laid out as
// core lays a -data-dir out, so a directory soupsd's preload wrote opens here.
func openTraced(dir string, sync storage.SyncMode, rec *recorder) ([]storage.Backend, []*tracedTiered, error) {
	var backends []storage.Backend
	var traced []*tracedTiered
	closeAll := func() {
		for _, t := range traced {
			t.Close()
		}
	}
	for i := 0; i < units; i++ {
		unitDir := filepath.Join(dir, fmt.Sprintf("unit-%d", i))
		wal, err := storage.OpenWAL(storage.WALOptions{Dir: unitDir, Sync: sync})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		store, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(unitDir, "sst")})
		if err != nil {
			wal.Close()
			closeAll()
			return nil, nil, err
		}
		t := &tracedTiered{Store: store, rec: rec}
		traced = append(traced, t)
		backends = append(backends, t)
	}
	return backends, traced, nil
}

// kernelOp is a request as a kernel call.
type kernelOp struct {
	class loadgen.Class
	key   repro.Key
	ops   []repro.Op
}

// requestKernelOps replays a stream's requests [0, to) as kernel calls.
func requestKernelOps(st stream, to uint64) ([]kernelOp, error) {
	ops := make([]kernelOp, 0, to)
	for i := uint64(0); i < to; i++ {
		req, ok := st.at(i)
		if !ok {
			break
		}
		key, err := requestKey(req.Path)
		if err != nil {
			return nil, err
		}
		op := kernelOp{class: req.Class, key: key}
		if req.Class == loadgen.Submit {
			if op.ops, err = requestOps(req); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// replay runs call over the operations from `clients` goroutines sharing one
// cursor, as the HTTP rung does.
func replay(ops []kernelOp, call func(i int, op kernelOp)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				call(i, ops[i])
			}
		}()
	}
	wg.Wait()
}

// hotReadBatch is how many reads one timed batch of the hot-read passes
// makes: a single cached read is tens of nanoseconds, the same order as
// reading the clock twice.
const hotReadBatch = 16

// hotReadNS times batches of reads of keys known to be resident and returns
// the median per-read nanoseconds.
func hotReadNS(keys []repro.Key, read func(repro.Key) error) (float64, int) {
	var per []int64
	for b := 0; b+hotReadBatch <= len(keys); b += hotReadBatch {
		t0 := time.Now()
		for _, k := range keys[b : b+hotReadBatch] {
			if read(k) != nil {
				return 0, 0
			}
		}
		per = append(per, int64(time.Since(t0))/hotReadBatch)
	}
	return float64(percentile(sortedCopy(per), 0.5)), len(per)
}

// residentKeys returns up to max keys the replay wrote, so a read of them
// afterwards is served from the materialised cache.
func residentKeys(ops []kernelOp, max int) []repro.Key {
	var keys []repro.Key
	seen := map[repro.Key]bool{}
	for _, op := range ops {
		if len(keys) == max {
			break
		}
		if op.class == loadgen.Submit && !seen[op.key] {
			seen[op.key] = true
			keys = append(keys, op.key)
		}
	}
	return keys
}

// runLadder runs rungs 1 to 3 for an HTTP workload whose rung 0 issued
// stream indices [0, to), and fills the per-layer metrics they give.
func runLadder(e *env, s *httpSpec, st *stage, to uint64, out *result) error {
	ops, err := requestKernelOps(s.stream, to)
	if err != nil {
		return err
	}
	rec := newRecorder()

	// Rung 1: the kernel, configured as soupsd was, over traced backends
	// where soupsd had a data dir and over nothing where it had none.
	opts := s.kernel
	var traced []*tracedTiered
	if s.durable {
		dir := st.ladderDir
		if dir == "" {
			dir = filepath.Join(e.workDir, "ladder")
		}
		if opts.UnitBackends, traced, err = openTraced(dir, opts.Fsync, rec); err != nil {
			return fmt.Errorf("rung 1: %w", err)
		}
	}
	k, err := repro.Bootstrap(opts, repro.StandardTypes()...)
	if err != nil {
		for _, t := range traced {
			t.Close()
		}
		return fmt.Errorf("rung 1: %w", err)
	}
	defer k.Close()
	k.Start()
	txBefore := k.TxnStats()
	var failures atomic.Int64
	replay(ops, func(i int, op kernelOp) {
		start := rec.now()
		var name spanName
		var err error
		switch op.class {
		case loadgen.Submit:
			name = spCoreUpdate
			_, err = k.Update(op.key, op.ops...)
		case loadgen.Read:
			name = spCoreRead
			_, err = k.Read(op.key)
		default:
			name = spCoreHistory
			_, err = k.History(op.key)
		}
		rec.add(name, start, rec.now(), int64(i))
		if err != nil && !errors.Is(err, lsdb.ErrNotFound) {
			failures.Add(1)
		}
	})
	if n := failures.Load(); n > 0 {
		out.fail(int(n), "rung 1: %d kernel calls failed", n)
	}
	hot, hotN := hotReadNS(residentKeys(ops, 1<<14), func(key repro.Key) error { _, err := k.Read(key); return err })
	if s.durable {
		if err := k.Checkpoint(); err != nil {
			return fmt.Errorf("rung 1 checkpoint: %w", err)
		}
		waitCompacted(k)
	}
	tx := k.TxnStats()
	ts, _, tiered := k.TieredStats()
	if s.durable && !tiered {
		out.fail(1, "rung 1: the traced backend was not taken for a tiered one")
	}

	spans := rec.snapshot()
	adopt(spans, map[spanName]bool{spCoreUpdate: true, spCoreRead: true, spCoreHistory: true},
		map[spanName]bool{spStoreAppend: true, spStoreSync: true, spLSMLookup: true})
	upd, rd, hist := durations(spans, spCoreUpdate), durations(spans, spCoreRead), durations(spans, spCoreHistory)
	out.set("core.update_p50_us", us(percentile(upd, 0.50)), len(upd))
	out.set("core.update_p90_us", us(percentile(upd, 0.90)), len(upd))
	out.set("core.read_hot_p50_ns", hot, hotN)
	if s.name == wlColdRead {
		// Every read of this workload is the first touch of a cold key.
		out.set("core.read_cold_p50_us", us(percentile(rd, 0.50)), len(rd))
	}
	out.set("core.history_p50_us", us(percentile(hist, 0.50)), len(hist))
	out.set("txn.commits", float64(tx.Commits-txBefore.Commits), 0)
	out.set("txn.conflicts", float64(tx.Conflicts-txBefore.Conflicts), 0)
	out.set("txn.aborts", float64(tx.Aborts-txBefore.Aborts), 0)
	out.set("soupsd.edge_self_submit_p50_us", out.values["soupsd.rung0_submit_p50_us"]-out.values["core.update_p50_us"], 0)
	rung1Read := us(percentile(rd, 0.50))
	out.set("soupsd.edge_self_read_p50_us", out.values["soupsd.rung0_read_p50_us"]-rung1Read, 0)

	if s.durable {
		app, flush, look := durations(spans, spStoreAppend), durations(spans, spLSMFlush), durations(spans, spLSMLookup)
		var appended int64
		for _, t := range traced {
			appended += t.appended.Load()
		}
		out.set("storage.append_calls", float64(len(app)), 0)
		out.set("storage.append_busy_s", float64(total(app))/1e9, 0)
		out.set("storage.append_p50_us", us(percentile(app, 0.50)), len(app))
		out.set("storage.append_p90_us", us(percentile(app, 0.90)), len(app))
		out.set("storage.sync_calls", float64(len(durations(spans, spStoreSync))), 0)
		if len(app) > 0 {
			out.set("lsdb.commit_batch_mean", float64(appended)/float64(len(app)), len(app))
		}
		out.set("lsm.flush_calls", float64(len(flush)), 0)
		out.set("lsm.flush_busy_s", float64(total(flush))/1e9, 0)
		out.set("lsm.flush_p50_ms", float64(percentile(flush, 0.50))/1e6, len(flush))
		out.set("lsm.lookup_calls", float64(len(look)), 0)
		out.set("lsm.lookup_p50_us", us(percentile(look, 0.50)), len(look))
		out.set("lsm.lookup_p90_us", us(percentile(look, 0.90)), len(look))
		if len(look) > 0 {
			out.set("lsm.tables_probed_per_lookup", float64(ts.BloomHits+ts.BloomFalse)/float64(len(look)), len(look))
		}
		if probes := ts.BloomHits + ts.BloomFalse; probes > 0 {
			out.set("lsm.bloom_false_ratio", float64(ts.BloomFalse)/float64(probes), int(probes))
		}
		if live := liveBytes(ops) + st.preloadBytes; live > 0 {
			out.set("lsm.space_per_live_byte", float64(ts.Bytes)/float64(live), 0)
		}
	}

	// Rungs 2 and 3.
	lowerRungs(ops, lsdb.Options{GroupCommit: opts.GroupCommit, MaxBatch: opts.MaxAppendBatch}, out)
	selfUpd := selfTimes(spans, spCoreUpdate)
	out.set("core.self_update_p50_us", us(percentile(selfUpd, 0.50))-out.values["lsdb.append_p50_us"], len(selfUpd))
	out.spans = append(out.spans, spans...)
	return nil
}

// waitCompacted waits (for at most 30 s) until no unit's level 0 is at or
// over its compaction trigger.
func waitCompacted(k *repro.Kernel) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ts, _, _ := k.TieredStats(); ts.CompactionBacklog == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveBytes is the size of the newest request body of every key written in
// [0, n): the user data a store without history would have to hold.
func liveBytes(ops []kernelOp) int64 {
	newest := map[repro.Key]int{}
	for _, op := range ops {
		if op.class == loadgen.Submit {
			size := 0
			for _, o := range op.ops {
				size += len(o.Field) + len(fmt.Sprint(o.Value)) + 8
			}
			newest[op.key] = size
		}
	}
	var total int64
	for _, size := range newest {
		total += int64(size)
	}
	return total
}

// lowerRungsCap bounds the operations rungs 2 and 3 replay; they are
// microsecond calls, so a prefix gives the medians.
const lowerRungsCap = 200000

// lowerRungs runs rung 2 (a bare lsdb store with the kernel's shard and
// group-commit options, no backend) and rung 3 (entity.Apply alone) over
// the operations and sets the lsdb.* and entity.* timing metrics.
func lowerRungs(ops []kernelOp, opts lsdb.Options, out *result) {
	if len(ops) > lowerRungsCap {
		ops = ops[:lowerRungsCap]
	}
	types := map[string]*entity.Type{}
	opts.Node, opts.Shards, opts.SnapshotEvery, opts.Validation = "bench", 8, 32, entity.Managed
	db := lsdb.Open(opts)
	for _, t := range workload.Types() {
		types[t.Name] = t
		if err := db.RegisterType(t); err != nil {
			out.fail(1, "rung 2: %v", err)
			return
		}
	}
	hlc := clock.NewHLC("bench")
	var appends sampleSet
	var failures atomic.Int64
	replay(ops, func(i int, op kernelOp) {
		switch op.class {
		case loadgen.Submit:
			stamp, txnID := hlc.Now(), fmt.Sprintf("t%d", i)
			t0 := time.Now()
			_, err := db.Append(op.key, op.ops, stamp, "bench", txnID)
			d := int64(time.Since(t0))
			if err != nil {
				failures.Add(1)
				return
			}
			appends.add(d)
		case loadgen.Read:
			_, _, _ = db.Current(op.key)
		default:
			_, _ = db.History(op.key)
		}
	})
	if f := failures.Load(); f > 0 {
		out.fail(int(f), "rung 2: %d appends failed", f)
	}
	app := appends.sorted()
	out.set("lsdb.append_p50_us", us(percentile(app, 0.50)), len(app))
	out.set("lsdb.append_p90_us", us(percentile(app, 0.90)), len(app))
	hot, hotN := hotReadNS(residentKeys(ops, 1<<14), func(key repro.Key) error { _, _, err := db.Current(key); return err })
	out.set("lsdb.current_hot_p50_ns", hot, hotN)

	// Rung 3: one goroutine, the bench holding the states.
	states := map[repro.Key]*entity.State{}
	var apply []int64
	for _, op := range ops {
		if op.class != loadgen.Submit {
			continue
		}
		prior := states[op.key]
		if prior == nil {
			prior = entity.NewState(op.key)
		}
		t0 := time.Now()
		next, _, err := entity.Apply(types[op.key.Type], prior, op.ops, entity.Managed)
		apply = append(apply, int64(time.Since(t0)))
		if err != nil {
			out.fail(1, "rung 3: %v", err)
			return
		}
		states[op.key] = next
	}
	apply = sortedCopy(apply)
	out.set("entity.apply_p50_ns", float64(percentile(apply, 0.50)), len(apply))
}

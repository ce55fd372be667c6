// Package lsm is the tiered persistence engine behind the storage.Tiered
// seam: a segmented WAL (the hot, append-only tier) plus immutable sorted
// tables (the cold tier) produced by off-hot-path flushes and merged by a
// background compactor.
//
// The division of labour with the store (internal/lsdb):
//
//   - The store decides WHAT to flush — it captures, under its shard locks,
//     each dirty entity's settled summary (a frozen COW state, zero-copy)
//     and the detail records still above the summary's horizon — and WHEN,
//     via byte/record triggers off the commit path.
//   - This package decides WHERE it lives: FlushTable turns one capture into
//     an immutable level-0 SSTable (sparse index + bloom sidecar), installs
//     it in the LSM manifest, and only then prunes the WAL segments the
//     capture covered. Recovery therefore replays tables (light summary
//     pointers + detail) and the remaining WAL tail — bounded by the newest
//     level plus the tail, not total history.
//   - A background compactor merges level-0 tables into the level-1 run,
//     keeping the newest summary per key, dropping detail the summary
//     supersedes and eliminating obsolete (withdrawn-promise) records. It
//     throttles itself while a flush's foreground fsync is in progress.
//
// Crash safety mirrors the WAL's: tables are written temp-fsync-rename, the
// manifest is replaced atomically, and open quarantines any *.sst the
// manifest does not name (a crash between table rename and manifest install
// leaves an orphan whose content the unpruned WAL still holds).
package lsm

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/storage"
)

// Hooks are test seams for the table file I/O, in the spirit of
// storage.FaultBackend: error injection at operation entry and simulated
// crashes at the named breakpoints inside the flush/compaction pipelines.
type Hooks struct {
	// Breakpoint, when non-nil, is consulted at named sites:
	// "flush:pre-rename" (table durable in its temp file, not yet visible),
	// "flush:pre-manifest" (table renamed in, manifest not yet updated),
	// "compact:pre-rename", "compact:pre-manifest", "compact:pre-delete"
	// (manifest updated, input tables not yet removed). A non-nil return
	// aborts the operation exactly where a crash at that site would.
	Breakpoint func(site string) error
	// FlushErr injects an I/O failure at the start of a flush.
	FlushErr func() error
}

// Options configure a tiered store.
type Options struct {
	// Dir is the table directory (created if missing). Keep it distinct from
	// the WAL directory so segment scans never see table files.
	Dir string
	// CompactAfter is the level-0 table count that triggers a compaction
	// pass (default 4).
	CompactAfter int
	// CompactThrottle is the pause the compactor inserts per 64 KiB of merged
	// output (it also waits out any flush that is writing) so sustained
	// compaction cannot monopolise the disk against foreground fsync
	// (default 500µs; negative disables).
	CompactThrottle time.Duration
	// Hooks are optional fault-injection seams.
	Hooks *Hooks
}

// Store implements storage.Tiered over a write-ahead log (the hot tier,
// whose seal/truncate primitives tiered pruning rides on) plus a table
// directory.
type Store struct {
	opts  Options
	inner *storage.WAL

	mu     sync.Mutex
	man    lsmManifest
	tables []*table // newest-first (Seq descending); slice is copy-on-write
	closed bool

	nextSeq atomic.Uint64

	// compactMu serialises compaction passes (the background loop and
	// explicit CompactNow calls).
	compactMu   sync.Mutex
	flushActive atomic.Bool

	bloomHits, bloomSkips, bloomFalse atomic.Uint64
	flushes, flushFailures            atomic.Uint64
	compactions, compactFailures      atomic.Uint64
	pruneSkips, pruneErrors           atomic.Uint64

	compactCh chan struct{}
	stopCh    chan struct{}
	done      chan struct{}

	// bufs holds the buffers of the last flush's table writer, for the next
	// one (nil while a writer has them).
	bufs atomic.Pointer[writerBufs]
}

// newWriter starts a table writer on the store's spare buffers, if any.
func (s *Store) newWriter(seq uint64) (*tableWriter, error) {
	bufs := s.bufs.Swap(nil)
	w, err := newTableWriter(s.opts.Dir, tableName(seq), bufs)
	if err != nil && bufs != nil {
		s.bufs.Store(bufs)
	}
	return w, err
}

// doneWith takes back the buffers of a writer that finished or aborted,
// unless they grew past what is worth keeping.
func (s *Store) doneWith(w *tableWriter) {
	if w.reusable() {
		w.bw.Reset(nil)
		s.bufs.Store(w.writerBufs)
	}
	w.writerBufs = nil
}

var _ storage.Tiered = (*Store)(nil)

// Open attaches the tiered store to its table directory: loads the
// manifest, quarantines orphans, opens and validates every live table
// (rebuilding missing bloom sidecars) and starts the background compactor.
func Open(inner *storage.WAL, opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("lsm: Options.Dir must be set")
	}
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = 4
	}
	if opts.CompactThrottle == 0 {
		opts.CompactThrottle = 500 * time.Microsecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	man, err := loadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	if _, err := sweepOrphans(opts.Dir, man); err != nil {
		return nil, err
	}
	s := &Store{
		opts:      opts,
		inner:     inner,
		man:       man,
		compactCh: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	sortTables(s.man.Tables)
	for _, meta := range s.man.Tables {
		t, err := openTable(opts.Dir, meta)
		if err != nil {
			for _, o := range s.tables {
				o.close()
			}
			return nil, err
		}
		s.tables = append(s.tables, t)
	}
	s.nextSeq.Store(nextTableSeq(opts.Dir, man))
	go s.compactorLoop()
	return s, nil
}

// nextTableSeq picks the first unused table sequence: past the manifest's
// counter and past any table file on disk (orphans included), so a crashed
// install can never collide with a fresh one.
func nextTableSeq(dir string, man lsmManifest) uint64 {
	next := man.NextTable
	if next == 0 {
		next = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return next
	}
	for _, e := range entries {
		var i uint64
		if n, _ := fmt.Sscanf(e.Name(), "sst-%d.", &i); n == 1 && i >= next {
			next = i + 1
		}
	}
	return next
}

func tableName(seq uint64) string { return fmt.Sprintf("sst-%010d.sst", seq) }

// AppendBatch delegates to the hot tier.
func (s *Store) AppendBatch(recs []storage.WALRecord) error { return s.inner.AppendBatch(recs) }

// Sync delegates to the hot tier.
func (s *Store) Sync() error { return s.inner.Sync() }

// Replay streams the durable content: every live table's recovery view —
// per key a light summary pointer (Horizon set, Summary nil: the state
// payload stays on disk for the cold read path) plus its full detail
// records — followed by the hot tier's remaining tail. The store dedups the
// overlap (a record can sit in both a table and the unpruned tail) by LSN.
func (s *Store) Replay(fn func(storage.WALRecord) error) (uint64, error) {
	s.mu.Lock()
	tables := s.tables
	watermark := s.man.Watermark
	s.mu.Unlock()
	if fn != nil {
		for _, t := range tables {
			if err := t.replay(fn); err != nil {
				return 0, err
			}
		}
	}
	w, err := s.inner.Replay(fn)
	if err != nil {
		return 0, err
	}
	if watermark > w {
		w = watermark
	}
	return w, nil
}

// Close stops the compactor, closes the live tables and the hot tier.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.inner.Close()
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.done
	s.mu.Lock()
	tables := s.tables
	s.tables = nil
	s.mu.Unlock()
	for _, t := range tables {
		t.close()
	}
	return s.inner.Close()
}

// SealWAL rotates the hot tier's active segment; see storage.Tiered.
func (s *Store) SealWAL() (uint64, error) { return s.inner.SealActive() }

// SetTxnFloor raises the txn-id floor the next manifest install persists;
// see storage.Tiered.
func (s *Store) SetTxnFloor(n uint64) {
	s.mu.Lock()
	s.man.TxnFloor = max(s.man.TxnFloor, n)
	s.mu.Unlock()
}

// TxnFloor returns the txn-id floor; see storage.Tiered.
func (s *Store) TxnFloor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.TxnFloor
}

// indexEntryGuess is the index bytes a flush reserves per entry: two short
// strings and five small uvarints.
const indexEntryGuess = 40

// FlushTable writes one level-0 table from a flush capture, installs it in
// the manifest, then prunes the WAL through the sealed boundary. The table
// landing and the prune are deliberately decoupled: once the manifest names
// the table the capture is durable, so a failed or retained prune (lagging
// standby) costs only disk, never correctness — recovery dedups the overlap.
func (s *Store) FlushTable(entries []storage.WALRecord, watermark, boundary uint64) error {
	s.flushActive.Store(true)
	defer s.flushActive.Store(false)
	fail := func(err error) error {
		s.flushFailures.Add(1)
		return err
	}
	if h := s.opts.Hooks; h != nil && h.FlushErr != nil {
		if err := h.FlushErr(); err != nil {
			return fail(fmt.Errorf("lsm: flush: %w", err))
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	s.mu.Unlock()
	seq := s.nextSeq.Add(1) - 1
	w, err := s.newWriter(seq)
	if err != nil {
		return fail(err)
	}
	w.reserve(len(entries), len(entries)*indexEntryGuess)
	for i := range entries {
		if err := w.add(&entries[i]); err != nil {
			w.abort()
			s.doneWith(w)
			return fail(err)
		}
	}
	t, err := w.finish(s.breakpoint("flush:pre-rename"))
	s.doneWith(w)
	if err != nil {
		return fail(err)
	}
	t.meta.Level, t.meta.Seq = 0, seq
	if watermark > t.meta.Watermark {
		t.meta.Watermark = watermark
	}
	meta := t.meta
	if err := s.runBreakpoint("flush:pre-manifest"); err != nil {
		return fail(err)
	}
	l0, err := s.install(t, nil)
	if err != nil {
		if err == storage.ErrClosed {
			return err
		}
		return fail(err)
	}
	s.flushes.Add(1)
	if pruned, err := s.inner.TruncateThrough(meta.Watermark, boundary); err != nil {
		s.pruneErrors.Add(1)
	} else if !pruned {
		s.pruneSkips.Add(1)
	}
	if l0 >= s.opts.CompactAfter {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// install opens t, fresh from a writer, and makes it live in place of the
// tables named in dead: a new manifest names it, then a new newest-first
// table slice holds it (copy-on-write: readers iterate snapshots of the old
// slice without locks). It returns the level-0 table count after.
func (s *Store) install(t *table, dead map[string]bool) (int, error) {
	if err := t.open(s.opts.Dir); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		t.close()
		return 0, storage.ErrClosed
	}
	man := s.man
	man.Seq++
	man.NextTable = s.nextSeq.Load()
	man.Tables = slices.DeleteFunc(append([]tableMeta{t.meta}, s.man.Tables...), func(m tableMeta) bool { return dead[m.Name] })
	sortTables(man.Tables)
	man.Watermark = max(man.Watermark, t.meta.Watermark)
	if err := installManifest(s.opts.Dir, man); err != nil {
		t.close()
		return 0, err
	}
	s.man = man
	tables := slices.DeleteFunc(append([]*table{t}, s.tables...), func(o *table) bool { return dead[o.meta.Name] })
	slices.SortStableFunc(tables, func(a, b *table) int { return cmp.Compare(b.meta.Seq, a.meta.Seq) })
	s.tables = tables
	return s.l0CountLocked(), nil
}

func (s *Store) l0CountLocked() int {
	n := 0
	for _, t := range s.tables {
		if t.meta.Level == 0 {
			n++
		}
	}
	return n
}

// breakpoint adapts a named hook site to the tableWriter callback form.
func (s *Store) breakpoint(site string) func() error {
	if h := s.opts.Hooks; h != nil && h.Breakpoint != nil {
		return func() error { return h.Breakpoint(site) }
	}
	return nil
}

func (s *Store) runBreakpoint(site string) error {
	if h := s.opts.Hooks; h != nil && h.Breakpoint != nil {
		return h.Breakpoint(site)
	}
	return nil
}

// LookupSummary is the cold read path: newest-to-oldest over the live
// tables, each consulted only after its key range and bloom filter admit
// the key. (nil, nil) means no table holds a summary.
func (s *Store) LookupSummary(key entity.Key) (*storage.WALRecord, error) {
	s.mu.Lock()
	tables := s.tables
	s.mu.Unlock()
	ck := compositeKey(key)
	h := keyHash(ck)
	for _, t := range tables {
		if ck < t.meta.MinKey || ck > t.meta.MaxKey {
			continue
		}
		if !t.bloom.mayContain(h) {
			s.bloomSkips.Add(1)
			continue
		}
		rec, err := t.lookupSummary(key)
		if err == errNotFound {
			s.bloomFalse.Add(1)
			continue
		}
		if err != nil {
			return nil, err
		}
		s.bloomHits.Add(1)
		return &rec, nil
	}
	return nil, nil
}

// TieredStats reports the current table layout and counters.
func (s *Store) TieredStats() storage.TieredStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := storage.TieredStats{
		BloomHits:       s.bloomHits.Load(),
		BloomSkips:      s.bloomSkips.Load(),
		BloomFalse:      s.bloomFalse.Load(),
		Flushes:         s.flushes.Load(),
		FlushFailures:   s.flushFailures.Load(),
		Compactions:     s.compactions.Load(),
		CompactFailures: s.compactFailures.Load(),
		WALPruneSkips:   s.pruneSkips.Load(),
		WALPruneErrors:  s.pruneErrors.Load(),
	}
	levels := map[int]bool{}
	for _, t := range s.tables {
		levels[t.meta.Level] = true
		st.Tables++
		if t.meta.Level == 0 {
			st.L0Tables++
		}
		st.TableKeys += t.meta.Keys
		st.Bytes += t.meta.Bytes
	}
	st.Levels = len(levels)
	if st.L0Tables >= s.opts.CompactAfter {
		st.CompactionBacklog = st.L0Tables - s.opts.CompactAfter + 1
	}
	return st
}

// Quarantine delegates the hot tier's corrupt-suffix repair.
func (s *Store) Quarantine() (uint64, error) { return s.inner.Quarantine() }

// StreamAfter delegates the hot tier's replication stream. Cuts below the
// tiered watermark answer ErrCompacted (the WAL no longer holds the detail).
func (s *Store) StreamAfter(after uint64, fn func(storage.WALRecord) error) error {
	return s.inner.StreamAfter(after, fn)
}

// SetReplicationWatermark delegates to the hot tier.
func (s *Store) SetReplicationWatermark(lsn uint64) error {
	return s.inner.SetReplicationWatermark(lsn)
}

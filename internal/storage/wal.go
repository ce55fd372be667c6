// Segmented write-ahead log backend.
//
// Layout of a data directory:
//
//	wal-0000000001.seg   segment files: 8-byte magic, then framed records
//	CHECKPOINT           manifest (JSON): the exact segment/offset the
//	                     replayable tail starts at, the highest LSN pruned
//	                     before it, and the replication watermark
//
// Every record is framed as
//
//	uint32 payload length | uint32 CRC32(payload) | payload
//
// (little-endian, IEEE CRC). A commit cycle is one buffered write of its
// batch's frames and, in SyncAlways mode, one force.
//
// The active segment is written in place: its allocation is kept up to
// reserveStep ahead of the write offset (force.go), so a force flushes data
// blocks and leaves the filesystem journal alone. A live segment is therefore
// longer than its content — content, then zeros — and the end of the log in
// it is the first all-zero frame header with only zeros behind it. A segment
// leaving service (rotation, SealActive, Close) is trimmed back to its
// content, so sealed and cleanly closed segments hold frames and nothing
// else.
//
// Segments rotate by size: when the active segment exceeds SegmentBytes it
// is trimmed, synced, sealed and a new one started. The WAL keeps the past by
// appending and never summarises it itself: a tiered flush (internal/lsm)
// writes settled history into tables and only then advances the manifest past
// the sealed segments they cover (TruncateThrough), which are pruned. The
// manifest is replaced atomically, so a crash leaves the old or the new
// position installed, never a half-written one.
//
// Recovery replays only the log at or after the manifest position: segments
// before it are skipped without being read.
// A torn final write — a crash leaves the last segment with a frame that is
// incomplete, or invalid with no unbroken run of valid frames from it to the
// exact end of the file — is truncated away and replay succeeds without it.
// Anything else that fails framing or CRC is surfaced as *CorruptError:
// silent data loss is the one outcome a durable log must never shrug at.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// segMagic opens every segment file ("SOUPWAL" + format version).
var segMagic = []byte("SOUPWAL\x01")

const (
	manifestName = "CHECKPOINT"
	// lockFileName is the exclusive-access lease of a data directory; see
	// lock.go / lock_fallback.go.
	lockFileName = "LOCK"
	// reserveStep is how far the active segment's allocation runs ahead of
	// the write offset once the segment holds that much: one reservation —
	// the only journal commit left on the ack path — per reserveStep bytes
	// appended. Measured: 64 KiB is one in ≈ 280 of the benchmark's appends;
	// reserving a whole 4 MiB segment gained less and made every flush seal
	// free megabytes on trim.
	reserveStep = 64 << 10
)

// ErrDirLocked is returned by OpenWAL when another process holds the data
// directory's lock: two writers interleaving appends in one WAL directory
// would corrupt the log, so the second opener fails fast instead.
var ErrDirLocked = errors.New("storage: data directory locked")

// SyncMode selects when the WAL forces appended bytes to stable storage.
type SyncMode int

// Sync modes.
const (
	// SyncOS leaves flushing to the operating system's page cache: appends
	// are buffered writes and fsync happens only on segment seal, Sync and
	// Close. Fastest, and a crash may lose the most recent commits (the
	// store itself stays consistent — recovery truncates the torn tail).
	SyncOS SyncMode = iota
	// SyncAlways fsyncs after every commit cycle: an acknowledged append
	// survives a crash.
	SyncAlways
)

// ParseSyncMode maps the -fsync-mode flag vocabulary onto a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "fsync":
		return SyncAlways, nil
	case "os", "none", "":
		return SyncOS, nil
	default:
		return SyncOS, fmt.Errorf("storage: unknown fsync mode %q (want always or os)", s)
	}
}

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	if m == SyncAlways {
		return "always"
	}
	return "os"
}

// WALOptions configure a segmented WAL.
type WALOptions struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// SegmentBytes is the rotation threshold for the active segment
	// (default 4 MiB).
	SegmentBytes int64
	// Sync selects the durability/latency trade-off (default SyncOS).
	Sync SyncMode
}

// CorruptError reports a framing or checksum failure in a segment file. It
// is a typed error so recovery tooling can distinguish real corruption
// (refuse to open, restore from backup) from the benign torn tail a crash
// leaves (handled internally by truncation).
type CorruptError struct {
	file   string // file the bad frame lives in
	offset int64  // byte offset of the frame
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt log: %s at %s+%d", e.Reason, e.file, e.offset)
}

// manifest records the exact position the replayable tail starts at and the
// highest append LSN pruned before it. It is replaced atomically (write-temp,
// rename, directory fsync).
type manifest struct {
	Seq uint64 `json:"seq"`
	// Snapshot is read only to refuse it: older builds named a monolithic
	// checkpoint snapshot here, whose content lives nowhere else once the
	// segments it covered were pruned (see snapshotManifestError).
	Snapshot  string `json:"snapshot,omitempty"`
	Watermark uint64 `json:"watermark"`
	Segment   uint64 `json:"segment"`
	Offset    int64  `json:"offset"`
	// Replicated is the replication watermark: the highest LSN a standby has
	// durably received into this log (see ReplicationMarker). It rides the
	// manifest so it survives restarts without a log replay, and is carried
	// forward unchanged by prunes. A manifest may exist for this field alone,
	// before any prune (Segment zero).
	Replicated uint64 `json:"replicated,omitempty"`
}

// snapshotManifestError is returned by OpenWAL for a data directory whose
// manifest names a checkpoint snapshot (ckpt-*.snap), the monolithic format
// older builds wrote without tiered storage. This build cannot replay it, and
// ignoring it would silently lose the history the snapshot holds: the
// segments it covered were pruned when it was taken.
type snapshotManifestError struct {
	dir      string // the data directory
	snapshot string // the snapshot file the manifest names
}

func (e *snapshotManifestError) Error() string {
	return fmt.Sprintf("storage: %s: manifest names checkpoint snapshot %s, a format this build no longer reads; "+
		"take a backup with `soupsctl backup` against an older build that still reads snapshots, "+
		"then `soupsctl restore` it into a fresh data directory (see docs/OPERATIONS.md, Upgrading and downgrading)", e.dir, e.snapshot)
}

// WAL is the segmented write-ahead log backend. All methods are safe for
// concurrent use; appends from independently committing shards serialise on
// one internal mutex (the frames of two batches never interleave).
type WAL struct {
	mu     sync.Mutex
	opts   WALOptions
	closed bool
	// scanned is set once the existing tail has been validated (and a torn
	// record truncated); both Replay and the first append ensure it.
	scanned bool
	// broken marks the WAL fail-stopped: a partial append could not be
	// erased, so continuing would bury garbage under valid frames and turn
	// a transient write error into unrecoverable mid-segment corruption.
	// Quarantine repairs it by truncating the partial suffix.
	broken bool
	// poisoned marks the WAL permanently unusable for writes: an fsync
	// reported failure, so the page cache and the disk are in unknown
	// disagreement and a retried fsync could claim success without making
	// the lost pages durable. Nothing clears it in-process — recovery is a
	// restart (replaying what the disk really holds) or a failover.
	poisoned bool
	man      manifest
	hasMan   bool
	lock     *dirLock
	segIndex uint64
	seg      *os.File
	segSize  int64 // end of the active segment's content: the write offset
	// reserved is the offset the active segment's allocation extends to;
	// [segSize, reserved) is zeros and at least one frame header long after
	// every append, which is how recovery tells a live segment from a
	// trimmed one.
	reserved int64
	// tail is the end of the last segment's content as the most recent scan
	// (replay, Quarantine) found or repaired it — where ensureActiveLocked
	// resumes writing, the file's size no longer being that offset.
	tail int64
	buf  []byte // frame scratch, reused across batches
	// next is a pre-created segment (magic written, creation durable) a
	// background goroutine prepared so rotation swaps to a ready file
	// instead of paying the create+fsync+dirsync on the append path.
	next      *os.File
	nextIndex uint64
	preparing bool
	prepCond  *sync.Cond // signalled when a background preparation finishes
	// sealing counts sealed segments whose data fsync runs on a background
	// goroutine (SyncOS rotation); sealCond is signalled as each completes.
	// Sync() waits the count out — it must not report success while a sealed
	// segment's pages are still draining.
	sealing  int
	sealCond *sync.Cond
	// dirDirty records a staged-segment rename whose directory entry is not
	// yet durable (SyncOS rotation skips the dirsync on the append path).
	// Until a directory fsync lands, a crash leaves the segment under its
	// preseg- staging name — which OpenWAL sweeps — so Sync() and SealActive
	// settle the debt before promising durability or a prune boundary.
	dirDirty bool
	// segMax is the highest append LSN of each segment this process knows in
	// full — it created the segment, or a decoding Replay scanned it — so
	// TruncateThrough learns its ErrCompacted cutoff without re-reading the
	// segments it prunes. A segment with no entry is scanned instead.
	segMax map[uint64]uint64
}

// OpenWAL opens (or initialises) the segmented WAL in dir, taking the
// directory's exclusive lock first — a second process opening the same
// directory fails fast with ErrDirLocked instead of interleaving appends.
// Opening reads only the manifest; segment scanning and torn-tail repair
// happen on Replay (or are done silently before the first append when
// Replay is skipped). Close releases the lock.
func OpenWAL(opts WALOptions) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("storage: WALOptions.Dir must be set")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	lock, err := acquireDirLock(opts.Dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{opts: opts, lock: lock, segMax: map[uint64]uint64{}}
	w.prepCond = sync.NewCond(&w.mu)
	w.sealCond = sync.NewCond(&w.mu)
	// Sweep staged segments a crashed process left behind — they are
	// scratch files, never part of the log until renamed into place.
	if strays, err := filepath.Glob(filepath.Join(opts.Dir, "preseg-*.tmp")); err == nil {
		for _, s := range strays {
			os.Remove(s)
		}
	}
	raw, err := os.ReadFile(filepath.Join(opts.Dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &w.man); err != nil {
			lock.release()
			return nil, fmt.Errorf("storage: malformed manifest: %w", err)
		}
		if w.man.Snapshot != "" {
			lock.release()
			return nil, &snapshotManifestError{dir: opts.Dir, snapshot: w.man.Snapshot}
		}
		w.hasMan = true
	case !os.IsNotExist(err):
		lock.release()
		return nil, fmt.Errorf("storage: %w", err)
	}
	return w, nil
}

// Dir returns the data directory.
func (w *WAL) Dir() string { return w.opts.Dir }

// segName returns the file name of segment i.
func segName(i uint64) string { return fmt.Sprintf("wal-%010d.seg", i) }

// segments lists existing segment indexes, ascending.
func (w *WAL) segments() ([]uint64, error) {
	entries, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		var i uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg", &i); n == 1 {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// AppendBatch writes one commit cycle's records as consecutive frames: one
// positioned file write, one force in SyncAlways mode, and a rotation when
// the active segment crossed the size threshold.
func (w *WAL) AppendBatch(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.poisoned {
		return fmt.Errorf("storage: append: %w", ErrPoisoned)
	}
	if w.broken {
		return fmt.Errorf("storage: append: %w (unerasable partial append)", ErrFailStopped)
	}
	if err := w.ensureActiveLocked(); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	var batchMax uint64
	for i := range recs {
		var err error
		if w.buf, err = AppendFrame(w.buf, &recs[i]); err != nil {
			return err
		}
		if recs[i].Kind == KindAppend && recs[i].LSN > batchMax {
			batchMax = recs[i].LSN
		}
	}
	// Keep a zero frame header's worth of reservation behind the batch: the
	// frames then land in space the file already has, and a crash leaves them
	// followed by zeros, never flush against the end of the file. A young
	// segment reserves no more than it holds, so a unit that wrote a few
	// hundred bytes neither pins a whole step nor, on a disk that has since
	// filled, goes on accepting writes a step deep before it refuses one.
	if end := w.segSize + int64(len(w.buf)); end+FrameHeader > w.reserved {
		ahead := min(end, reserveStep)
		if err := reserve(w.seg, w.reserved, end+ahead-w.reserved); err != nil {
			return fmt.Errorf("storage: append: %w", err)
		}
		w.reserved = end + ahead
	}
	if _, err := w.seg.WriteAt(w.buf, w.segSize); err != nil {
		// Erase the partial frame (and the reservation with it) so valid
		// frames never land after garbage. If even the truncate fails,
		// fail-stop: refusing further appends is recoverable (restart,
		// torn-tail repair), a poisoned segment is not.
		if terr := w.seg.Truncate(w.segSize); terr != nil {
			w.broken = true
		}
		w.reserved = w.segSize
		return fmt.Errorf("storage: append: %w", err)
	}
	w.segSize += int64(len(w.buf))
	if known, ok := w.segMax[w.segIndex]; ok && batchMax > known {
		w.segMax[w.segIndex] = batchMax
	}
	if w.opts.Sync == SyncAlways {
		wakeIdleThread()
		if err := datasync(w.seg); err != nil {
			// Never retry a failed force: the kernel marked the dirty pages
			// clean when it reported the error, so a second one can succeed
			// without the data being durable. Poison the WAL permanently.
			w.poisoned = true
			return fmt.Errorf("storage: append sync: %w: %v", ErrPoisoned, err)
		}
	}
	if w.segSize >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

// wakeIdleThread has the Go runtime wake an idle P's thread, if there is
// one, before the caller blocks in a force. fdatasync holds this thread and
// its P for tens of µs; a request that arrives meanwhile would otherwise
// wait for a parked thread to be woken (on a VM, a halted vCPU), which on a
// two-core box costs a concurrent read more than the read itself. Starting a
// goroutine is the runtime's wake-up (wakep); the goroutine does nothing.
func wakeIdleThread() { go func() {}() }

// ensureActiveLocked opens the active segment for appending, scanning and
// repairing the existing tail first if Replay has not done so already.
func (w *WAL) ensureActiveLocked() error {
	if w.seg != nil {
		return nil
	}
	if !w.scanned {
		// Appending without a prior Replay: validate the tail silently so a
		// torn record from a previous crash is truncated before new frames
		// land after it.
		if err := w.replayLocked(nil); err != nil {
			return err
		}
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	if len(segs) == 0 || (w.hasMan && segs[len(segs)-1] < w.man.Segment) {
		// Nothing at or after the manifest position: no scan covered the
		// segments that exist, so none of them is resumed.
		w.segIndex = 1
		if w.hasMan && w.man.Segment > 0 {
			w.segIndex = w.man.Segment
		}
		return w.createSegmentLocked(w.segIndex)
	}
	w.segIndex = segs[len(segs)-1]
	path := filepath.Join(w.opts.Dir, segName(w.segIndex))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	// Resume at the end of the content the scan established; whatever the
	// file holds past it is a reservation the scan verified to be zeros.
	w.seg, w.segSize, w.reserved = f, w.tail, info.Size()
	return nil
}

// preSegName is the staging name for a pre-created segment. The prefix is
// deliberately not "wal-": segments() must never list a staged file (the
// torn-tail contract says only the final *segment* may be incomplete, and a
// staged file after the active segment would break that), and the lax
// Sscanf match would accept any "wal-…" name.
func preSegName(i uint64) string { return fmt.Sprintf("preseg-%010d.tmp", i) }

// writeSegmentFile creates a segment-shaped file at path: magic written,
// file fsynced, directory fsynced — durable before any frame may be
// acknowledged out of it, otherwise power loss after rotation could leave a
// headerless file under durable frames. On failure the partial file is
// removed.
func writeSegmentFile(dir, name string) (*os.File, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	fail := func(err error) (*os.File, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if _, err := f.Write(segMagic); err != nil {
		return fail(fmt.Errorf("storage: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("storage: %w", err))
	}
	if err := SyncDir(dir); err != nil {
		return fail(err)
	}
	return f, nil
}

// createSegmentLocked makes segment i the active one. The common case
// renames the segment a background goroutine pre-created into place — one
// rename syscall on the append path instead of create+fsync+dirsync (the
// staged file's content is already durable; SyncAlways additionally syncs
// the directory so the new *name* is durable before a frame is acked out of
// it, while SyncOS never promised durability at ack time). When no staged
// segment is ready the creation happens inline under the final name — the
// staging name is distinct, so an in-flight preparation can never collide
// with it, and must NOT be waited for: cond-Wait would release w.mu
// mid-rotation and let an append land in a segment the caller already
// decided is sealed. A stale staging that finishes later is detected by
// index and dropped. Either way the next segment's preparation is kicked
// off before returning (a no-op while one is still in flight).
func (w *WAL) createSegmentLocked(i uint64) error {
	if w.next != nil {
		f, idx := w.next, w.nextIndex
		w.next = nil
		if idx == i {
			if err := os.Rename(filepath.Join(w.opts.Dir, preSegName(i)),
				filepath.Join(w.opts.Dir, segName(i))); err == nil {
				if w.opts.Sync == SyncAlways {
					if err := SyncDir(w.opts.Dir); err != nil {
						// The caller keeps appending to the segment before
						// this one, which must stay the last on disk.
						f.Close()
						os.Remove(filepath.Join(w.opts.Dir, segName(i)))
						return err
					}
				} else {
					// The rename is not durable yet: until a directory fsync
					// lands, a crash leaves this segment under its staging
					// name and the open-time stray sweep would delete its
					// frames. Sync()/SealActive settle the debt.
					w.dirDirty = true
				}
				w.activateLocked(f, i)
				return nil
			}
			// Rename failed: fall through to inline creation.
			f.Close()
		} else {
			// Stale staging (index moved some other way): drop it.
			f.Close()
			os.Remove(filepath.Join(w.opts.Dir, preSegName(idx)))
		}
	}
	f, err := writeSegmentFile(w.opts.Dir, segName(i))
	if err != nil {
		return err
	}
	w.activateLocked(f, i)
	return nil
}

// activateLocked installs f, a segment file holding only its magic, as
// active segment i and starts staging its successor.
func (w *WAL) activateLocked(f *os.File, i uint64) {
	w.seg, w.segIndex = f, i
	w.segSize, w.reserved = int64(len(segMagic)), int64(len(segMagic))
	w.segMax[i] = 0
	w.prepareNextLocked(i + 1)
}

// prepareNextLocked starts background staging of segment i so the next
// rotation finds a ready file. A preparation failure is silent — rotation
// simply falls back to inline creation and reports the error there.
func (w *WAL) prepareNextLocked(i uint64) {
	if w.preparing || w.next != nil || w.closed {
		return
	}
	w.preparing = true
	go func() {
		f, err := writeSegmentFile(w.opts.Dir, preSegName(i))
		w.mu.Lock()
		defer w.mu.Unlock()
		w.preparing = false
		w.prepCond.Broadcast()
		if err != nil {
			return
		}
		if w.closed {
			f.Close()
			os.Remove(filepath.Join(w.opts.Dir, preSegName(i)))
			return
		}
		w.next, w.nextIndex = f, i
	}()
}

// rotateLocked starts the next segment and seals the one it replaces. The
// successor comes first: if it cannot be created the old segment stays
// active and the next append retries the rotation, so a segment is only ever
// trimmed after the last write into it.
func (w *WAL) rotateLocked() error {
	old, size := w.seg, w.segSize
	if err := w.createSegmentLocked(w.segIndex + 1); err != nil {
		return err
	}
	// The sealed segment's trim and flush are a background durability
	// checkpoint, not part of the append: under SyncAlways every acked frame
	// in it was already forced, and SyncOS never promised durability at ack
	// time, so neither mode should stall the hot path for a journal commit
	// (or, in SyncOS, a full segment's data fsync) at every rotation. A sync
	// failure poisons the WAL exactly as an inline failure would. The sealing
	// count lets Sync() wait the drain out instead of reporting success while
	// the sealed segment's pages are still in flight.
	w.sealing++
	go func() {
		err := retire(old, size)
		w.mu.Lock()
		w.sealing--
		if errors.Is(err, ErrPoisoned) {
			w.poisoned = true
		}
		w.sealCond.Broadcast()
		w.mu.Unlock()
	}()
	return nil
}

// retire takes a segment out of service: trimmed to its size bytes of
// content — a sealed or cleanly closed segment holds frames and nothing else
// — then fsynced and closed. A failed fsync comes back wrapping ErrPoisoned.
// A failed trim only leaves the zero tail in place, which every scan reads
// as the end of the segment.
func retire(f *os.File, size int64) error {
	err := f.Truncate(size)
	if serr := f.Sync(); serr != nil {
		f.Close()
		return fmt.Errorf("%w: %v", ErrPoisoned, serr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync forces everything appended so far to stable storage: it waits out any
// just-sealed segment's background data fsync, makes staged-rename directory
// entries durable (SyncOS rotation defers that dirsync off the append path)
// and fsyncs the active segment. Success means every acked frame — and the
// segment name it lives under — survives a crash.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	for w.sealing > 0 {
		w.sealCond.Wait()
	}
	if w.closed {
		return ErrClosed
	}
	if w.poisoned {
		return fmt.Errorf("storage: sync: %w", ErrPoisoned)
	}
	if err := w.settleDirLocked(); err != nil {
		return err
	}
	if w.seg == nil {
		return nil
	}
	if err := w.seg.Sync(); err != nil {
		w.poisoned = true
		return fmt.Errorf("storage: sync: %w: %v", ErrPoisoned, err)
	}
	return nil
}

// settleDirLocked performs the directory fsync a SyncOS staged rename
// deferred, making every renamed-in segment durable under its final name.
func (w *WAL) settleDirLocked() error {
	if !w.dirDirty {
		return nil
	}
	if err := SyncDir(w.opts.Dir); err != nil {
		return err
	}
	w.dirDirty = false
	return nil
}

// Close trims and syncs the active segment and releases the WAL, dropping
// the data-directory lock.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	defer func() {
		w.lock.release()
		w.lock = nil
	}()
	// Wait out an in-flight segment preparation before dropping the
	// directory lock: its create must not land after another process has
	// taken ownership of the directory. Same for a sealed segment's
	// background data fsync.
	for w.preparing {
		w.prepCond.Wait()
	}
	for w.sealing > 0 {
		w.sealCond.Wait()
	}
	// Release every file whatever fails on the way, and report the first
	// failure.
	err := w.settleDirLocked()
	if w.next != nil {
		// The staged segment was never renamed into place: remove the
		// scratch file. A crash leaves it behind; OpenWAL sweeps strays.
		w.next.Close()
		os.Remove(filepath.Join(w.opts.Dir, preSegName(w.nextIndex)))
		w.next = nil
	}
	if w.seg != nil {
		if rerr := retire(w.seg, w.segSize); rerr != nil && err == nil {
			err = fmt.Errorf("storage: close: %w", rerr)
		}
		w.seg = nil
	}
	return err
}

// Replay streams every record in segments at or after the manifest position;
// segments before it were pruned by a tiered flush and are skipped unread.
// Returns the manifest watermark: the highest append LSN pruned (0 without
// a prune).
func (w *WAL) Replay(fn func(WALRecord) error) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.replayLocked(fn); err != nil {
		return 0, err
	}
	if w.hasMan {
		return w.man.Watermark, nil
	}
	return 0, nil
}

func (w *WAL) replayLocked(fn func(WALRecord) error) error {
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for n, i := range segs {
		start := int64(len(segMagic))
		if w.hasMan {
			if i < w.man.Segment {
				continue // pruned through the manifest position: skipped unread
			}
			if i == w.man.Segment {
				start = w.man.Offset
			}
		}
		last := n == len(segs)-1
		path := filepath.Join(w.opts.Dir, segName(i))
		// A last segment shorter than its magic is the torn creation of a
		// crash right after rotation: the file exists (directory was synced)
		// but nothing in it was ever durable — unless the manifest claims
		// content here, in which case short is real corruption. Repair by
		// rewriting the header; there are no frames to scan.
		if last && (!w.hasMan || i != w.man.Segment) {
			if info, err := os.Stat(path); err == nil && info.Size() < int64(len(segMagic)) {
				if err := rewriteSegmentHeader(path); err != nil {
					return err
				}
				w.tail = int64(len(segMagic))
				continue
			}
		}
		// A decoding replay sees every record the segment holds from start on,
		// so it also learns the segment's highest append LSN (see segMax).
		track, segMax := fn, uint64(0)
		if fn != nil {
			track = func(rec WALRecord) error {
				if rec.Kind == KindAppend && rec.LSN > segMax {
					segMax = rec.LSN
				}
				return fn(rec)
			}
		}
		end, err := scanFile(path, segMagic, start, segTail(last), track)
		if err != nil {
			return err
		}
		if last {
			w.tail = end
		}
		if fn != nil {
			w.segMax[i] = segMax
		}
	}
	w.scanned = true
	return nil
}

// segTail is the tail rule of a segment: only the last one may end torn.
func segTail(last bool) tailRule {
	if last {
		return endTorn
	}
	return endZeros
}

// rewriteSegmentHeader resets a torn-creation segment to a valid empty one.
func rewriteSegmentHeader(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: repairing torn segment: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(segMagic); err != nil {
		return fmt.Errorf("storage: repairing torn segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: repairing torn segment: %w", err)
	}
	return nil
}

// tailRule is what a scan accepts as the end of a file.
type tailRule int

const (
	// endZeros: the last frame ends at the end of the file, or an all-zero
	// frame header (no frame is ever empty, so no writer produces one) with
	// only zeros behind it — a reservation. Sealed segments: the trim that
	// follows a seal may have been lost to a crash.
	endZeros tailRule = iota
	// endTorn: also a torn write, which the scan cuts off. The last segment,
	// the only one a crash can catch mid-write.
	endTorn
)

// scanFile walks the frames of one segment from offset start, invoking fn
// (when non-nil) with each decoded record, and returns the offset its
// content ends at. Where the content may end is the tailRule's; the first
// frame that fails framing or CRC anywhere else is *CorruptError, as is a
// bad magic.
//
// In a last segment (endTorn) a frame that is incomplete, or that is invalid
// and not followed by an unbroken run of valid frames to the exact end of the
// file, is the debris of a crashed write — pages of the unsynced suffix reach
// the disk in any order, so valid frames may even follow it — and the file is
// truncated at that frame. An invalid frame that IS followed by valid frames
// to the exact end of the file sits in a segment that was trimmed, hence
// closed cleanly after its last write: that is damage, not a crash, and stays
// *CorruptError.
func scanFile(path string, magic []byte, start int64, tail tailRule, fn func(WALRecord) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil || !bytes.Equal(head, magic) {
		return 0, &CorruptError{file: filepath.Base(path), offset: 0, Reason: "bad file magic"}
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	fr := frameReader{br: bufio.NewReaderSize(f, 1<<16), off: start, size: info.Size()}
	offset := start
	corrupt := func(reason string) (int64, error) {
		return 0, &CorruptError{file: filepath.Base(path), offset: offset, Reason: reason}
	}
	torn := func(reason string) (int64, error) {
		if tail != endTorn {
			return corrupt(reason)
		}
		return offset, truncateTail(path, offset)
	}
	for {
		payload, verdict, err := fr.next()
		if err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
		switch verdict {
		case frameEnd:
			return offset, nil
		case frameShort:
			return torn("incomplete frame")
		case frameZero:
			zeros, err := fr.restIsZero()
			if err != nil {
				return 0, fmt.Errorf("storage: %w", err)
			}
			if zeros {
				return offset, nil
			}
			return torn("empty frame")
		case frameHuge:
			return corrupt("implausible frame length")
		case frameBadSum:
			if tail == endTorn {
				trimmed, err := fr.validToEnd()
				if err != nil {
					return 0, fmt.Errorf("storage: %w", err)
				}
				if !trimmed {
					return torn("CRC mismatch")
				}
			}
			return corrupt("CRC mismatch")
		}
		if fn != nil {
			rec, err := DecodeRecord(payload)
			if err != nil {
				return corrupt(err.Error())
			}
			if err := fn(rec); err != nil {
				return 0, err
			}
		}
		offset += FrameHeader + int64(len(payload))
	}
}

// frameVerdict is what frameReader.next found at its position.
type frameVerdict int

const (
	frameOK     frameVerdict = iota
	frameEnd                 // no bytes left
	frameShort               // the header or the payload runs past the end
	frameZero                // all-zero header: space no frame was written to
	frameHuge                // length beyond MaxFrame
	frameBadSum              // payload does not match its CRC
)

// frameReader walks frames through br: a segment file for the WAL's scans,
// any byte stream for StreamReader. size is how many bytes the source held
// when the read began (-1 when unknown, as for a stream) and off how many
// were consumed. Memory for a payload grows with the bytes of it
// that have arrived, never with the length its header claims, and a file's
// frame is first checked against what the file has left — a corrupt or
// forged length cannot make the reader allocate past the bytes it received.
// The end of the data is still the reader's EOF, not size — a sealed
// segment's zero tail may be trimmed away (retire) under a scan. Errors are
// I/O errors; everything the bytes can cause is a verdict.
type frameReader struct {
	br        *bufio.Reader
	off, size int64
	hdr       [FrameHeader]byte
	payload   []byte // reused across frames
}

func (r *frameReader) next() ([]byte, frameVerdict, error) {
	n, err := io.ReadFull(r.br, r.hdr[:])
	r.off += int64(n)
	switch err {
	case nil:
	case io.EOF:
		return nil, frameEnd, nil
	case io.ErrUnexpectedEOF:
		return nil, frameShort, nil
	default:
		return nil, 0, err
	}
	length := int(binary.LittleEndian.Uint32(r.hdr[:]))
	sum := binary.LittleEndian.Uint32(r.hdr[4:])
	switch {
	case length == 0 && sum == 0:
		return nil, frameZero, nil
	case length > MaxFrame:
		return nil, frameHuge, nil
	case r.size >= 0 && int64(length) > r.size-r.off:
		return nil, frameShort, nil
	}
	r.payload = r.payload[:0]
	for len(r.payload) < length {
		step := min(length-len(r.payload), max(len(r.payload), 4<<10))
		r.payload = slices.Grow(r.payload, step)
		n, err = io.ReadFull(r.br, r.payload[len(r.payload):len(r.payload)+step])
		r.payload = r.payload[:len(r.payload)+n]
		r.off += int64(n)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return nil, frameShort, nil
		default:
			return nil, 0, err
		}
	}
	if crc32.ChecksumIEEE(r.payload) != sum {
		return nil, frameBadSum, nil
	}
	return r.payload, frameOK, nil
}

// restIsZero consumes the remaining bytes and reports whether all are zero.
func (r *frameReader) restIsZero() (bool, error) {
	for {
		chunk, err := r.br.Peek(r.br.Size())
		for _, b := range chunk {
			if b != 0 {
				return false, nil
			}
		}
		r.br.Discard(len(chunk))
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// validToEnd consumes the remaining bytes and reports whether they are valid
// frames, none or more, ending exactly where the bytes do.
func (r *frameReader) validToEnd() (bool, error) {
	for {
		_, verdict, err := r.next()
		if err != nil || verdict != frameOK {
			return verdict == frameEnd, err
		}
	}
}

// truncateTail cuts a segment at offset — the last complete frame before a
// torn write, or the first corrupt frame under Quarantine — durably.
func truncateTail(path string, offset int64) error {
	rw, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	defer rw.Close()
	if err := rw.Truncate(offset); err != nil {
		return fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	if err := rw.Sync(); err != nil {
		return fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	return nil
}

// SealActive rotates the active segment so everything appended so far lives
// in sealed, immutable segments, and returns the index of the last sealed
// segment — the boundary a tiered flush may later prune through
// (TruncateThrough). An active segment holding no frames is left alone:
// sealing nothing would only litter the directory with empty files.
func (w *WAL) SealActive() (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.poisoned {
		w.mu.Unlock()
		return 0, fmt.Errorf("storage: seal: %w", ErrPoisoned)
	}
	if w.broken {
		w.mu.Unlock()
		return 0, fmt.Errorf("storage: seal: %w (unerasable partial append)", ErrFailStopped)
	}
	if err := w.ensureActiveLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	if w.segSize <= int64(len(segMagic)) {
		boundary := w.segIndex - 1
		// The sealed prefix may be pruned through the boundary once a flush
		// covers it, so every retained segment's name must be durable first.
		err := w.settleDirLocked()
		w.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return boundary, nil // empty active: all durable frames are already sealed
	}
	// Swap a fresh active segment in under the lock, then trim, fsync and
	// close the sealed one outside it: the sealed file takes no more writes
	// the moment the swap lands, so appends proceed into the new segment
	// while its predecessor's pages drain to disk — a seal never stalls the
	// hot path for a data fsync. (createSegmentLocked keeps its own small
	// magic+dir syncs under the lock: the new segment must exist durably
	// before a frame is acked out of it.)
	old, size := w.seg, w.segSize
	if err := w.createSegmentLocked(w.segIndex + 1); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	boundary := w.segIndex - 1
	w.mu.Unlock()
	if err := retire(old, size); err != nil {
		if errors.Is(err, ErrPoisoned) {
			w.mu.Lock()
			w.poisoned = true
			w.mu.Unlock()
		}
		return 0, fmt.Errorf("storage: seal: %w", err)
	}
	// Settle the staged-rename directory debt (the swap above just created
	// one for the new active segment, and the sealed one may carry an older
	// one) before reporting the boundary: a flush prunes through it on the
	// strength of this return, and a crash must not be able to demote a
	// retained segment back to a swept preseg- stray.
	w.mu.Lock()
	err := w.settleDirLocked()
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return boundary, nil
}

// TruncateThrough advances the manifest past sealed segments whose records a
// tiered flush has made durable elsewhere: the replayable tail now begins at
// segment through+1 and the covered segments are pruned. The manifest
// watermark — the cutoff below which StreamAfter answers ErrCompacted —
// advances only to the highest LSN the pruned segments actually contained,
// which the covered prefix is scanned for: the flush's own watermark can
// cover records still in the retained tail (the active segment, frames above
// the seal boundary), and adopting it would force a full resync on any
// standby whose cut the retained segments still serve. watermark is that
// flush capture watermark; it gates retention only. When replication is
// active and the standby's durable watermark trails it, nothing is pruned —
// catch-up may still need to stream these segments, and the next flush
// retries; the false return reports that skip.
func (w *WAL) TruncateThrough(watermark, through uint64) (bool, error) {
	prunedMax, scanned := uint64(0), false
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return false, ErrClosed
		}
		if w.man.Replicated > 0 && w.man.Replicated < watermark {
			w.mu.Unlock()
			return false, nil // a lagging standby still needs this tail: retain it
		}
		man := w.man
		base := w.man.Seq
		firstSeg, firstOff, hasMan := w.man.Segment, w.man.Offset, w.hasMan
		var known map[uint64]uint64
		if !scanned {
			// Sealed segments are immutable, so their entries are final.
			known = make(map[uint64]uint64, len(w.segMax))
			for i, m := range w.segMax {
				if i <= through {
					known[i] = m
				}
			}
		}
		w.mu.Unlock()

		// Find the true compaction cutoff: the highest append LSN in the
		// segments this prune covers. Segments this process wrote or replayed
		// answer from memory; any other costs one read of a file about to be
		// deleted, off the append lock and off the hot path (the flusher
		// goroutine is the only caller). The answer is reused across retries
		// of the optimistic-commit loop — a concurrent manifest install only
		// ever changes replication fields, not the segment span.
		if !scanned {
			var err error
			prunedMax, err = w.maxLSNThrough(firstSeg, firstOff, hasMan, through, known)
			if err != nil {
				return false, err
			}
			scanned = true
		}
		man.Seq++
		if prunedMax > man.Watermark {
			man.Watermark = prunedMax
		}
		if through+1 > man.Segment {
			man.Segment = through + 1
			man.Offset = int64(len(segMagic))
		}

		// Stage the new manifest durably off the append lock: its data fsync
		// queues behind the flush's own table and sealed-segment syncs, so
		// holding w.mu across it would stall every append for the disk's
		// journal latency. The staging name is distinct from the locked
		// installer's, so the two never collide on a temp file.
		tmp, err := w.stageManifest(man, ".prune")
		if err != nil {
			return false, err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			os.Remove(tmp)
			return false, ErrClosed
		}
		if w.man.Seq != base {
			// A concurrent install (replication watermark update) advanced
			// the manifest while the lock was down: recompute against it
			// rather than clobbering its fields with stale copies.
			w.mu.Unlock()
			os.Remove(tmp)
			continue
		}
		// The rename and its adoption happen under the lock; the directory
		// fsync that makes the manifest durable, and then the removal of the
		// segments it no longer names, happen off it, so appends go on
		// meanwhile. Nothing that holds the lock opens a segment below the
		// adopted manifest's position, and a crash before the fsync lands
		// finds every segment the old manifest names still in place.
		if err := os.Rename(tmp, filepath.Join(w.opts.Dir, manifestName)); err != nil {
			w.mu.Unlock()
			os.Remove(tmp)
			return false, fmt.Errorf("storage: %w", err)
		}
		w.man, w.hasMan = man, true
		maps.DeleteFunc(w.segMax, func(i, _ uint64) bool { return i < man.Segment })
		w.mu.Unlock()
		if err := SyncDir(w.opts.Dir); err != nil {
			return false, err
		}
		w.removeSegmentsBefore(man.Segment)
		return true, nil
	}
}

// maxLSNThrough returns the highest append LSN in the sealed segments a
// TruncateThrough(_, through) call is about to prune — from the manifest
// position to segment through: the exact boundary below which the log can no
// longer serve a replication stream. known holds the per-segment maxima
// already in memory; only a segment absent from it is scanned.
func (w *WAL) maxLSNThrough(firstSeg uint64, firstOff int64, hasMan bool, through uint64, known map[uint64]uint64) (uint64, error) {
	segs, err := w.segments()
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, i := range segs {
		if i > through {
			continue
		}
		start := int64(len(segMagic))
		if hasMan {
			if i < firstSeg {
				continue // already covered by the previous manifest position
			}
			if i == firstSeg {
				start = firstOff
			}
		}
		if m, ok := known[i]; ok {
			if m > max {
				max = m
			}
			continue
		}
		path := filepath.Join(w.opts.Dir, segName(i))
		if info, err := os.Stat(path); err != nil || info.Size() <= start {
			continue
		}
		_, err := scanFile(path, segMagic, start, endZeros, func(rec WALRecord) error {
			if rec.Kind == KindAppend && rec.LSN > max {
				max = rec.LSN
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return max, nil
}

// stageManifest writes man durably to a temp file named by suffix and
// returns its path. The manifest bytes must be durable before a rename makes
// them current: pruning runs right after an install, so a garbage manifest
// with the covered segments already deleted would leave the node unable to
// start. Safe to call without w.mu as long as each caller uses a distinct
// suffix.
func (w *WAL) stageManifest(man manifest, suffix string) (string, error) {
	raw, err := json.Marshal(man)
	if err != nil {
		return "", fmt.Errorf("storage: %w", err)
	}
	tmp := filepath.Join(w.opts.Dir, manifestName) + suffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("storage: %w", err)
	}
	return tmp, nil
}

// commitManifestLocked renames a staged manifest into place and adopts it.
func (w *WAL) commitManifestLocked(tmp string, man manifest) error {
	if err := os.Rename(tmp, filepath.Join(w.opts.Dir, manifestName)); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := SyncDir(w.opts.Dir); err != nil {
		return err
	}
	w.man, w.hasMan = man, true
	return nil
}

// installManifestLocked atomically replaces the manifest.
func (w *WAL) installManifestLocked(man manifest) error {
	tmp, err := w.stageManifest(man, ".tmp")
	if err != nil {
		return err
	}
	return w.commitManifestLocked(tmp, man)
}

// SetReplicationWatermark durably records lsn in the manifest. Installing a
// manifest is a write-fsync-rename cycle, so callers batch updates (every few
// shipped batches) rather than marking every append.
func (w *WAL) SetReplicationWatermark(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.man.Replicated == lsn && (w.hasMan || lsn == 0) {
		return nil
	}
	man := w.man
	man.Replicated = lsn
	return w.installManifestLocked(man)
}

// StreamAfter streams retained append records with LSN > after plus the marks
// in range, per the Streamer contract. A cut below the manifest watermark
// fails with ErrCompacted: a tiered flush pruned the detail records the
// receiver is missing, so the stream cannot be rebuilt from this log alone.
func (w *WAL) StreamAfter(after uint64, fn func(WALRecord) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !w.scanned {
		// Validate (and torn-tail repair) the segments once before serving
		// them, exactly as replay would.
		if err := w.replayLocked(nil); err != nil {
			return err
		}
	}
	filter := func(rec WALRecord) error {
		switch rec.Kind {
		case KindAppend:
			if rec.LSN <= after {
				return nil
			}
		case KindSummary:
			return ErrCompacted
		}
		return fn(rec)
	}
	if w.hasMan && after < w.man.Watermark {
		return ErrCompacted
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for n, i := range segs {
		start := int64(len(segMagic))
		if w.hasMan {
			if i < w.man.Segment {
				continue
			}
			if i == w.man.Segment {
				start = w.man.Offset
			}
		}
		path := filepath.Join(w.opts.Dir, segName(i))
		if info, err := os.Stat(path); err == nil && info.Size() <= start {
			continue // nothing after the cut (or torn creation already handled by replay)
		}
		if _, err := scanFile(path, segMagic, start, segTail(n == len(segs)-1), filter); err != nil {
			return err
		}
	}
	return nil
}

// Quarantine isolates a corrupt log suffix so the WAL can accept appends
// again: it re-scans the replayable tail, truncates the first corrupt
// segment at the corruption offset, sets every later segment aside (renamed
// with a .quarantined suffix — kept for forensics, invisible to replay) and
// clears the fail-stop flag. It returns the highest append LSN the log
// still verifiably holds; the caller refills everything after it from a
// peer's copy (replication catch-up) before resuming writes. A poisoned WAL
// (fsync failure) refuses: quarantine cannot restore unknown durability.
func (w *WAL) Quarantine() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.poisoned {
		return 0, fmt.Errorf("storage: quarantine: %w", ErrPoisoned)
	}
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	clear(w.segMax) // segments may be truncated or set aside below
	var lastGood uint64
	if w.hasMan {
		lastGood = w.man.Watermark
	}
	segs, err := w.segments()
	if err != nil {
		return 0, err
	}
	cut := -1
	for n, i := range segs {
		start := int64(len(segMagic))
		if w.hasMan {
			if i < w.man.Segment {
				continue
			}
			if i == w.man.Segment {
				start = w.man.Offset
			}
		}
		path := filepath.Join(w.opts.Dir, segName(i))
		if info, err := os.Stat(path); err == nil && info.Size() < int64(len(segMagic)) {
			// Torn creation: nothing in it was ever durable.
			if err := rewriteSegmentHeader(path); err != nil {
				return 0, err
			}
			w.tail = int64(len(segMagic))
			continue
		}
		// The last segment's torn tail — the partial append a fail-stop could
		// not erase — is cut by the scan itself.
		end, scanErr := scanFile(path, segMagic, start, segTail(n == len(segs)-1), func(rec WALRecord) error {
			if rec.Kind == KindAppend && rec.LSN > lastGood {
				lastGood = rec.LSN
			}
			return nil
		})
		if scanErr == nil {
			w.tail = end
			continue
		}
		var ce *CorruptError
		if !errors.As(scanErr, &ce) {
			return 0, scanErr
		}
		if ce.offset < int64(len(segMagic)) {
			// The segment header itself is bad: no frame in it is trustworthy.
			if err := rewriteSegmentHeader(path); err != nil {
				return 0, err
			}
			w.tail = int64(len(segMagic))
		} else {
			if err := truncateTail(path, ce.offset); err != nil {
				return 0, err
			}
			w.tail = ce.offset
		}
		cut = n
		break
	}
	if cut >= 0 {
		for _, i := range segs[cut+1:] {
			name := segName(i)
			os.Rename(filepath.Join(w.opts.Dir, name), filepath.Join(w.opts.Dir, name+".quarantined"))
		}
		if err := SyncDir(w.opts.Dir); err != nil {
			return 0, err
		}
	}
	w.broken = false
	w.scanned = true
	return lastGood, nil
}

// removeSegmentsBefore removes the segments before index first, which a
// durable manifest no longer names. Best-effort: a leftover file is harmless
// (replay skips it), so removal errors are ignored.
func (w *WAL) removeSegmentsBefore(first uint64) {
	segs, _ := w.segments()
	for _, i := range segs {
		if i < first {
			os.Remove(filepath.Join(w.opts.Dir, segName(i)))
		}
	}
}

// SyncDir fsyncs a directory so renames and creations in it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

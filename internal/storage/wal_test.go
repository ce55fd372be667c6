package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
)

func appendRec(lsn uint64, id string) WALRecord {
	return WALRecord{
		LSN:    lsn,
		Key:    entity.Key{Type: "Account", ID: id},
		Ops:    []entity.Op{entity.Delta("balance", float64(lsn))},
		Stamp:  clock.Timestamp{WallNanos: int64(lsn), Node: "t"},
		Origin: "t",
		TxnID:  fmt.Sprintf("t%d", lsn),
	}
}

func collect(t *testing.T, b Backend) ([]WALRecord, uint64) {
	t.Helper()
	var out []WALRecord
	watermark, err := b.Replay(func(rec WALRecord) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out, watermark
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want []WALRecord
	for batch := 0; batch < 5; batch++ {
		var recs []WALRecord
		for i := 0; i < 3; i++ {
			recs = append(recs, appendRec(uint64(batch*3+i+1), fmt.Sprintf("a%d", i)))
		}
		if err := w.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, watermark := collect(t, w2)
	if watermark != 0 {
		t.Fatalf("watermark = %d without a checkpoint", watermark)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay mismatch: %d in, %d out", len(want), len(got))
	}
	// The WAL stays appendable after replay.
	if err := w2.AppendBatch([]WALRecord{appendRec(99, "tail")}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, _ := OpenWAL(WALOptions{Dir: dir})
	got3, _ := collect(t, w3)
	if len(got3) != len(want)+1 || got3[len(got3)-1].LSN != 99 {
		t.Fatalf("post-replay append lost: %d records", len(got3))
	}
	w3.Close()
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "hot")}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := w.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	w.Close()
	w2, _ := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	got, _ := collect(t, w2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	w2.Close()
}

func TestWALTornTailDropsOnlyLastRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the final record: chop bytes off the end of the last segment,
	// leaving a partial frame — what a crash mid-write leaves behind.
	segPath := filepath.Join(dir, segName(1))
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	w2, _ := OpenWAL(WALOptions{Dir: dir})
	got, _ := collect(t, w2)
	if len(got) != 9 {
		t.Fatalf("torn tail: replayed %d records, want 9 (only the torn record dropped)", len(got))
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d after torn-tail repair", i, rec.LSN)
		}
	}
	// The tail was truncated back to the last complete frame: appends resume
	// cleanly and a further replay sees old + new records.
	if err := w2.AppendBatch([]WALRecord{appendRec(10, "a")}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, _ := OpenWAL(WALOptions{Dir: dir})
	got3, _ := collect(t, w3)
	if len(got3) != 10 || got3[9].LSN != 10 {
		t.Fatalf("append after torn-tail repair lost records: %d", len(got3))
	}
	w3.Close()
}

func TestWALTornHeaderDropsOnlyLastRecord(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(WALOptions{Dir: dir})
	for i := 1; i <= 3; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Leave only 3 bytes of the final frame's 8-byte header.
	segPath := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame start by walking frames from the front.
	off := int64(len(segMagic))
	for {
		length := binary.LittleEndian.Uint32(raw[off:])
		next := off + frameHeader + int64(length)
		if next >= int64(len(raw)) {
			break
		}
		off = next
	}
	if err := os.Truncate(segPath, off+3); err != nil {
		t.Fatal(err)
	}
	w2, _ := OpenWAL(WALOptions{Dir: dir})
	got, _ := collect(t, w2)
	if len(got) != 2 {
		t.Fatalf("torn header: replayed %d records, want 2", len(got))
	}
	w2.Close()
}

func TestWALCRCMismatchIsTypedError(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(WALOptions{Dir: dir})
	for i := 1; i <= 10; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Flip one byte in the middle of the segment: a media error, not a torn
	// write. Recovery must refuse, loudly and typed.
	segPath := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, _ := OpenWAL(WALOptions{Dir: dir})
	_, err = w2.Replay(func(WALRecord) error { return nil })
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("mid-segment corruption returned %v, want *CorruptError", err)
	}
	if corrupt.file == "" || corrupt.Reason == "" {
		t.Fatalf("corrupt error lacks context: %+v", corrupt)
	}
	w2.Close()
}

func TestWALIncompleteFrameInSealedSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 40; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := w.segments()
	if len(segs) < 2 {
		t.Fatalf("need at least two segments, got %d", len(segs))
	}
	w.Close()
	// Truncate a NON-last segment: the data after the cut is unreachable, so
	// this is corruption, not a torn tail.
	victim := filepath.Join(dir, segName(segs[0]))
	info, _ := os.Stat(victim)
	if err := os.Truncate(victim, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	w2, _ := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	_, err := w2.Replay(func(WALRecord) error { return nil })
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("sealed-segment truncation returned %v, want *CorruptError", err)
	}
	w2.Close()
}

// TestWALTornSegmentCreation: a crash right after rotation can leave the new
// last segment file empty (or shorter than its magic) — the file creation
// reached the directory, the header never reached the platters. Recovery
// must repair it, not refuse with a corruption error.
func TestWALTornSegmentCreation(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(WALOptions{Dir: dir})
	for i := 1; i <= 5; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate the torn creation: a next segment exists but is empty.
	torn := filepath.Join(dir, segName(2))
	if err := os.WriteFile(torn, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, _ := OpenWAL(WALOptions{Dir: dir})
	got, _ := collect(t, w2)
	if len(got) != 5 {
		t.Fatalf("torn segment creation: replayed %d records, want 5", len(got))
	}
	// The repaired segment accepts appends and a further replay sees them.
	if err := w2.AppendBatch([]WALRecord{appendRec(6, "a")}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, _ := OpenWAL(WALOptions{Dir: dir})
	got3, _ := collect(t, w3)
	if len(got3) != 6 || got3[5].LSN != 6 {
		t.Fatalf("append after torn-creation repair lost records: %d", len(got3))
	}
	w3.Close()
}

func TestMemoryBackendContract(t *testing.T) {
	m := NewMemory()
	var recs []WALRecord
	for i := 1; i <= 6; i++ {
		recs = append(recs, appendRec(uint64(i), "a"))
	}
	if err := m.AppendBatch(recs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBatch(recs[3:]); err != nil {
		t.Fatal(err)
	}
	got, watermark := collect(t, m)
	if watermark != 0 {
		t.Fatalf("watermark = %d, want 0 (memory prunes nothing)", watermark)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("memory replay mismatch: %d vs %d records", len(recs), len(got))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBatch(recs[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestWALDirLockRefusesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]WALRecord{appendRec(1, "a")}); err != nil {
		t.Fatal(err)
	}
	// A second opener of the same directory must fail fast — two processes
	// interleaving appends in one WAL directory would corrupt the log.
	if _, err := OpenWAL(WALOptions{Dir: dir}); !errors.Is(err, ErrDirLocked) {
		t.Fatalf("second opener: got %v, want ErrDirLocked", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lease: reopening succeeds and replays the log.
	w2, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	got, _ := collect(t, w2)
	if len(got) != 1 || got[0].LSN != 1 {
		t.Fatalf("replay after relock = %v", got)
	}
	w2.Close()
}

func streamAfter(t *testing.T, s Streamer, after uint64) []WALRecord {
	t.Helper()
	var out []WALRecord
	if err := s.StreamAfter(after, func(rec WALRecord) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("StreamAfter(%d): %v", after, err)
	}
	return out
}

func TestReplicationWatermarkPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replicated(w); got != 0 {
		t.Fatalf("fresh watermark = %d", got)
	}
	if err := w.AppendBatch([]WALRecord{appendRec(1, "a"), appendRec(2, "b")}); err != nil {
		t.Fatal(err)
	}
	if err := w.SetReplicationWatermark(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The watermark must survive a reopen without a replay, even though no
	// checkpoint was ever taken, and the log content must be intact.
	w2, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replicated(w2); got != 2 {
		t.Fatalf("watermark after reopen = %d, want 2", got)
	}
	recs, _ := collect(t, w2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
}

// TestReplicationWatermarkCarriedThroughCheckpoint: the manifest rewrite of
// a tiered prune (what a store's Checkpoint ends in) keeps the replication
// watermark, in memory and across a reopen.
func TestReplicationWatermarkCarriedThroughCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]WALRecord{appendRec(1, "a"), appendRec(2, "b")}); err != nil {
		t.Fatal(err)
	}
	if err := w.SetReplicationWatermark(7); err != nil {
		t.Fatal(err)
	}
	boundary, err := w.SealActive()
	if err != nil {
		t.Fatal(err)
	}
	if pruned, err := w.TruncateThrough(2, boundary); err != nil || !pruned {
		t.Fatalf("TruncateThrough = %v, %v; want a prune", pruned, err)
	}
	if got := replicated(w); got != 7 {
		t.Fatalf("watermark after prune = %d, want 7", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replicated(w2); got != 7 {
		t.Fatalf("watermark after reopen = %d, want 7", got)
	}
}

func TestStreamAfterServesTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for lsn := uint64(1); lsn <= 10; lsn++ {
		if err := w.AppendBatch([]WALRecord{appendRec(lsn, "a")}); err != nil {
			t.Fatal(err)
		}
	}
	got := streamAfter(t, w, 6)
	if len(got) != 4 {
		t.Fatalf("streamed %d records after 6, want 4", len(got))
	}
	for i, rec := range got {
		if want := uint64(7 + i); rec.LSN != want {
			t.Fatalf("rec[%d].LSN = %d, want %d", i, rec.LSN, want)
		}
	}
	// Only appends stream: a log holding an older build's mark cannot be
	// cut by LSN, so the stream fails.
	if err := w.AppendBatch([]WALRecord{{Kind: KindObsolete, Key: entity.Key{Type: "Account", ID: "a"}, TxnID: "t3"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.StreamAfter(10, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stream after 10 over a mark: %v, want ErrCompacted", err)
	}
}

func lsns(recs []WALRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i, rec := range recs {
		out[i] = rec.LSN
	}
	return out
}

func TestStreamAfterCompactedHistoryFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([]WALRecord{appendRec(1, "a"), appendRec(2, "a")}); err != nil {
		t.Fatal(err)
	}
	// An archived summary in a segment, as a log installed from a cut holds
	// one: the detail records below the compaction horizon no longer exist
	// individually, whatever the cut.
	summary := WALRecord{Kind: KindSummary, Key: entity.Key{Type: "Account", ID: "a"}, Summary: &entity.State{}}
	if err := w.AppendBatch([]WALRecord{summary}); err != nil {
		t.Fatal(err)
	}
	for _, after := range []uint64{0, 2} {
		if err := w.StreamAfter(after, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
			t.Fatalf("stream after %d across a summary: want ErrCompacted, got %v", after, err)
		}
	}
	// Once a tiered prune drops the segment, the cut below its highest LSN
	// still fails loudly, and one at or past it streams the tail.
	boundary, err := w.SealActive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateThrough(2, boundary); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]WALRecord{appendRec(3, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := w.StreamAfter(0, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stream into pruned history: want ErrCompacted, got %v", err)
	}
	if got := streamAfter(t, w, 2); len(got) != 1 || got[0].LSN != 3 {
		t.Fatalf("stream after the prune watermark = %v, want [3]", lsns(got))
	}
}

// TestOpenWALRefusesSnapshotManifest: a data directory whose manifest names a
// monolithic checkpoint snapshot is refused with a typed error that names the
// backup/restore remedy. Replaying only the segments would silently lose the
// history the snapshot holds; the directory is left as it was.
func TestOpenWALRefusesSnapshotManifest(t *testing.T) {
	dir := t.TempDir()
	const snap = "ckpt-0000000001.snap"
	rec := appendRec(1, "a")
	frames, err := AppendFrame([]byte("SOUPCKP\x01"), &rec)
	if err != nil {
		t.Fatal(err)
	}
	man := `{"seq":1,"snapshot":"` + snap + `","watermark":1,"segment":1,"offset":8}`
	for name, body := range map[string][]byte{snap: frames, manifestName: []byte(man)} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 { // the refusal releases the directory lock
		w, err := OpenWAL(WALOptions{Dir: dir})
		var refused *snapshotManifestError
		if !errors.As(err, &refused) {
			if err == nil {
				w.Close()
			}
			t.Fatalf("OpenWAL over a snapshot manifest = %v, want *snapshotManifestError", err)
		}
		if refused.snapshot != snap {
			t.Fatalf("refusal names snapshot %q, want %q", refused.snapshot, snap)
		}
		for _, remedy := range []string{"soupsctl backup", "soupsctl restore"} {
			if !strings.Contains(err.Error(), remedy) {
				t.Fatalf("refusal %q does not name the remedy %q", err, remedy)
			}
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, snap)); err != nil || string(got) != string(frames) {
		t.Fatalf("snapshot after refusal: %v (changed: %v)", err, string(got) != string(frames))
	}
}

// replicated is the replication watermark w's manifest records.
func replicated(w *WAL) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.Replicated
}

func TestMemoryStreamAndWatermark(t *testing.T) {
	m := NewMemory()
	if err := m.AppendBatch([]WALRecord{appendRec(1, "a"), appendRec(2, "b")}); err != nil {
		t.Fatal(err)
	}
	if got := streamAfter(t, m, 1); len(got) != 1 || got[0].LSN != 2 {
		t.Fatalf("memory stream after 1 = %v", lsns(got))
	}
	if err := m.SetReplicationWatermark(2); err != nil {
		t.Fatal(err)
	}
	if got := m.replicated; got != 2 {
		t.Fatalf("memory watermark = %d", got)
	}
}

// TestWALTornWriteRecoveryMatrix is the exhaustive crash-point sweep: a
// segment of known frames is truncated at every byte offset — mid-header,
// mid-payload, and exactly on each frame boundary — and recovery must yield
// exactly the wholly-written prefix, never an error and never a partial
// record. The single-offset torn-tail tests above are spot checks; this is
// the proof that no byte position in a crashed final write is special.
func TestWALTornWriteRecoveryMatrix(t *testing.T) {
	const n = 4
	pristine := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: pristine})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(pristine, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: boundaries[k] is the offset right after the k-th
	// complete frame (boundaries[0] is the end of the magic).
	boundaries := []int64{int64(len(segMagic))}
	for off := int64(len(segMagic)); off < int64(len(raw)); {
		length := binary.LittleEndian.Uint32(raw[off:])
		off += frameHeader + int64(length)
		boundaries = append(boundaries, off)
	}
	if len(boundaries) != n+1 || boundaries[n] != int64(len(raw)) {
		t.Fatalf("segment layout: %d frames ending at %v, file is %d bytes", len(boundaries)-1, boundaries, len(raw))
	}
	// survivors(cut) = how many frames are wholly below the cut.
	survivors := func(cut int64) int {
		k := 0
		for k < n && boundaries[k+1] <= cut {
			k++
		}
		return k
	}

	for cut := int64(len(segMagic)); cut <= int64(len(raw)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(WALOptions{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		var got []WALRecord
		if _, err := w2.Replay(func(rec WALRecord) error {
			got = append(got, rec)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay of a torn final write must succeed, got %v", cut, err)
		}
		want := survivors(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want exactly the %d-frame prefix", cut, len(got), want)
		}
		for i, rec := range got {
			if rec.LSN != uint64(i+1) {
				t.Fatalf("cut %d: record %d has LSN %d, want the dense prefix", cut, i, rec.LSN)
			}
		}
		// The repair truncated back to the boundary: the log accepts appends
		// and a fresh replay sees prefix + new record, nothing torn.
		if err := w2.AppendBatch([]WALRecord{appendRec(uint64(want+1), "resume")}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		w2.Close()
		w3, err := OpenWAL(WALOptions{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got3, _ := collect(t, w3)
		if len(got3) != want+1 || got3[len(got3)-1].LSN != uint64(want+1) {
			t.Fatalf("cut %d: replay after resume has %d records, want %d", cut, len(got3), want+1)
		}
		w3.Close()
	}
}

// A torn write is repaired silently; a damaged byte under intact framing is
// not. The matrix above must not desensitise recovery: flipping one payload
// byte mid-log (framing intact, CRC wrong) stays a typed *CorruptError at
// every position, distinguishing bit rot from crash debris.
func TestWALMidLogCorruptionStaysTypedAcrossOffsets(t *testing.T) {
	const n = 4
	pristine := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: pristine})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(pristine, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside each of the first three frames (the last
	// frame's corruption is also detected — CRC runs before torn-tail logic
	// ever applies, which only triggers on incomplete reads, not bad sums).
	off := int64(len(segMagic))
	for frame := 0; frame < n; frame++ {
		length := binary.LittleEndian.Uint32(raw[off:])
		target := off + frameHeader + int64(length)/2
		dir := t.TempDir()
		mut := append([]byte(nil), raw...)
		mut[target] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(WALOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		_, err = w2.Replay(func(WALRecord) error { return nil })
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("frame %d: corrupted payload replayed with err %v, want *CorruptError", frame, err)
		}
		if ce.offset != off {
			t.Fatalf("frame %d: CorruptError at offset %d, want frame start %d", frame, ce.offset, off)
		}
		w2.Close()
		off += frameHeader + int64(length)
	}
}

// TestSealTruncatePrunesTieredHistory pins the tiered-pruning primitives:
// SealActive rotates the active segment and returns the sealed boundary,
// TruncateThrough prunes through it once a flush covers the records, replay
// afterwards yields only the tail, and replication cuts below the tiered
// watermark answer ErrCompacted.
func TestSealTruncatePrunesTieredHistory(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := w.SealActive()
	if err != nil {
		t.Fatal(err)
	}
	if boundary == 0 {
		t.Fatal("seal returned no boundary despite durable frames")
	}
	// Sealing an already-empty active segment must not rotate again.
	again, err := w.SealActive()
	if err != nil || again != boundary {
		t.Fatalf("idempotent seal: %d, %v, want %d", again, err, boundary)
	}
	// Records after the seal land above the boundary and must survive pruning.
	for i := 21; i <= 23; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "b")}); err != nil {
			t.Fatal(err)
		}
	}
	if pruned, err := w.TruncateThrough(20, boundary); err != nil || !pruned {
		t.Fatalf("TruncateThrough = %v, %v, want pruned", pruned, err)
	}
	got, watermark := collect(t, w)
	if watermark != 20 {
		t.Fatalf("replay watermark %d after truncate, want 20", watermark)
	}
	if len(got) != 3 || got[0].LSN != 21 || got[2].LSN != 23 {
		t.Fatalf("tail after truncate: %d records, first %d", len(got), got[0].LSN)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 1 {
		t.Fatalf("sealed segments not pruned: %v", segs)
	}
	// No snapshot backs the manifest, so a cut below the watermark is gone.
	if err := w.StreamAfter(5, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamAfter(5) = %v, want ErrCompacted", err)
	}
	// A cut at the watermark streams the tail.
	var tail []uint64
	if err := w.StreamAfter(20, func(rec WALRecord) error { tail = append(tail, rec.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0] != 21 {
		t.Fatalf("StreamAfter(20) tail %v", tail)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation survives reopen.
	w2, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	got2, watermark2 := collect(t, w2)
	if watermark2 != 20 || len(got2) != 3 {
		t.Fatalf("after reopen: watermark %d, %d records", watermark2, len(got2))
	}
	w2.Close()
}

// TestTruncateThroughCutoffIsPrunedMax: the ErrCompacted cutoff a tiered
// prune installs is the highest LSN the pruned segments actually contained,
// not the flush capture watermark — the capture can cover records still
// sitting in the retained active segment, and a standby whose cut those
// retained frames serve must stream instead of being forced into a resync.
func TestTruncateThroughCutoffIsPrunedMax(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 20; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := w.SealActive()
	if err != nil {
		t.Fatal(err)
	}
	// Records 21..23 land above the seal, in the retained active segment; the
	// flush watermark (23) covers them anyway — a capture races ahead of the
	// seal boundary by design.
	for i := 21; i <= 23; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "b")}); err != nil {
			t.Fatal(err)
		}
	}
	if pruned, err := w.TruncateThrough(23, boundary); err != nil || !pruned {
		t.Fatalf("TruncateThrough = %v, %v, want pruned", pruned, err)
	}
	// A standby at LSN 21: the retained segments hold 22 and 23, so the
	// stream must serve them, not answer ErrCompacted.
	var streamed []uint64
	if err := w.StreamAfter(21, func(rec WALRecord) error { streamed = append(streamed, rec.LSN); return nil }); err != nil {
		t.Fatalf("StreamAfter(21) = %v, want the retained tail", err)
	}
	if len(streamed) != 2 || streamed[0] != 22 || streamed[1] != 23 {
		t.Fatalf("StreamAfter(21) tail %v, want [22 23]", streamed)
	}
	// A cut at the true pruned max streams the whole retained tail.
	streamed = nil
	if err := w.StreamAfter(20, func(rec WALRecord) error { streamed = append(streamed, rec.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 3 || streamed[0] != 21 {
		t.Fatalf("StreamAfter(20) tail %v, want [21 22 23]", streamed)
	}
	// A cut genuinely below the pruned prefix is gone.
	if err := w.StreamAfter(19, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamAfter(19) = %v, want ErrCompacted", err)
	}
}

// TestTruncateThroughCutoffAcrossReopen: the cutoff comes from per-segment
// maxima kept in memory, and a segment this process only partly knows — the
// active segment of a previous process, reopened for appending — must still
// contribute what the previous process wrote. After the reopen only a mark
// (no LSN) is appended, so a cutoff built from this process's appends alone
// would be 0 and StreamAfter would serve a pruned history as if complete.
func TestTruncateThroughCutoffAcrossReopen(t *testing.T) {
	for _, mode := range []string{"replayed", "validated-only"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w, err = OpenWAL(WALOptions{Dir: dir, SegmentBytes: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if mode == "replayed" {
				if _, err := w.Replay(func(WALRecord) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			mark := WALRecord{Kind: KindObsolete, Key: entity.Key{Type: "Account", ID: "a"}, TxnID: "t5"}
			if err := w.AppendBatch([]WALRecord{mark}); err != nil {
				t.Fatal(err)
			}
			boundary, err := w.SealActive()
			if err != nil {
				t.Fatal(err)
			}
			if pruned, err := w.TruncateThrough(5, boundary); err != nil || !pruned {
				t.Fatalf("TruncateThrough = %v, %v, want pruned", pruned, err)
			}
			if err := w.StreamAfter(4, func(WALRecord) error { return nil }); !errors.Is(err, ErrCompacted) {
				t.Fatalf("StreamAfter(4) = %v, want ErrCompacted: record 5 was pruned", err)
			}
			if err := w.StreamAfter(5, func(WALRecord) error { return nil }); err != nil {
				t.Fatalf("StreamAfter(5) = %v, want the (empty) retained tail", err)
			}
		})
	}
}

// TestTruncateThroughRetainsForLaggingStandby: when replication trails the
// flush watermark, pruning is refused so catch-up can still stream the tail.
func TestTruncateThroughRetainsForLaggingStandby(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 10; i++ {
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SetReplicationWatermark(4); err != nil {
		t.Fatal(err)
	}
	boundary, err := w.SealActive()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := w.TruncateThrough(10, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if pruned {
		t.Fatal("TruncateThrough reported a prune despite the lagging standby")
	}
	// The standby only acked LSN 4: everything must still replay.
	got, _ := collect(t, w)
	if len(got) != 10 {
		t.Fatalf("lagging-standby tail pruned: %d records left", len(got))
	}
	var streamed []uint64
	if err := w.StreamAfter(4, func(rec WALRecord) error { streamed = append(streamed, rec.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 6 || streamed[0] != 5 {
		t.Fatalf("catch-up stream %v", streamed)
	}
}

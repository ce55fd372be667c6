package storage

// The end of the log in a segment that is written in place. A live segment
// is content followed by a reservation of zeros, so what a crash leaves is
// not a short file but a long one whose tail is zeros with, at worst, the
// debris of the unsynced writes in front of them. These tests build such
// images byte by byte — the shapes a kill -9 and a power loss leave — so they
// hold on a filesystem that cannot reserve as well as on one that can.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encodeBatches returns a segment's magic followed by the frames of the given
// batches, and the offset each batch ends at (ends[0] is the end of the
// magic): what AppendBatch leaves in a file, built without one.
func encodeBatches(t testing.TB, batches [][]WALRecord) (raw []byte, ends []int64) {
	t.Helper()
	raw = append(raw, segMagic...)
	ends = []int64{int64(len(raw))}
	for _, batch := range batches {
		for i := range batch {
			var err error
			if raw, err = appendFrame(raw, &batch[i]); err != nil {
				t.Fatal(err)
			}
		}
		ends = append(ends, int64(len(raw)))
	}
	return raw, ends
}

// batchesOf returns n batches of per records each, LSNs dense from 1.
func batchesOf(n, per int) [][]WALRecord {
	out := make([][]WALRecord, n)
	lsn := uint64(0)
	for b := range out {
		for i := 0; i < per; i++ {
			lsn++
			out[b] = append(out[b], appendRec(lsn, "a"))
		}
	}
	return out
}

// frameEnds returns the offset each frame of raw ends at, walking from the
// magic until a zero header or the end.
func frameEnds(raw []byte) []int64 {
	var out []int64
	off := int64(len(segMagic))
	for off+frameHeader <= int64(len(raw)) {
		length := binary.LittleEndian.Uint32(raw[off:])
		if length == 0 {
			break
		}
		off += frameHeader + int64(length)
		out = append(out, off)
	}
	return out
}

// reservedImage is img with a reservation's worth of zeros behind it.
func reservedImage(img []byte) []byte {
	return append(append([]byte(nil), img...), make([]byte, reserveStep)...)
}

// zeroed is img with [from, to) zeroed: bytes that never reached the disk.
func zeroed(img []byte, from, to int64) []byte {
	out := append([]byte(nil), img...)
	clear(out[from:to])
	return out
}

// wholeFrames counts the leading frames of img that torn — img with some
// bytes lost — still holds whole. (A frame whose lost bytes were zeros to
// begin with lost nothing.)
func wholeFrames(img, torn []byte) int {
	n := 0
	for _, end := range frameEnds(img) {
		if !bytes.Equal(img[:end], torn[:end]) {
			break
		}
		n++
	}
	return n
}

// recoverImage opens a directory holding img as segment 1 and replays it.
func recoverImage(t *testing.T, img []byte, sync SyncMode) (*WAL, []WALRecord, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(WALOptions{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	var got []WALRecord
	_, err = w.Replay(func(rec WALRecord) error {
		got = append(got, rec)
		return nil
	})
	return w, got, err
}

// wantDensePrefix fails unless got is exactly LSNs 1..n.
func wantDensePrefix(t *testing.T, what string, got []WALRecord, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: recovered %d records (LSNs %v), want exactly 1..%d", what, len(got), lsns(got), n)
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("%s: record %d has LSN %d, want the dense prefix", what, i, rec.LSN)
		}
	}
}

// resumeAndReopen appends one record to a recovered WAL, closes it, and
// checks a fresh open sees prefix records then the new one and nothing else:
// whatever the crash left behind the cut must not resurface.
func resumeAndReopen(t *testing.T, what string, w *WAL, prefix int) {
	t.Helper()
	dir := w.Dir()
	if err := w.AppendBatch([]WALRecord{appendRec(uint64(prefix+1), "resume")}); err != nil {
		t.Fatalf("%s: append after recovery: %v", what, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s: close: %v", what, err)
	}
	w2, err := OpenWAL(WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	wantDensePrefix(t, what+": after resume", got, prefix+1)
}

// Every byte-prefix of the last batch landing in a reserved zero tail: the
// rest of the batch reads as zeros, not as a short file, so the frame the cut
// falls in is complete by length and wrong by CRC, or has a zero header. All
// of it is the torn tail; none of it is corruption.
func TestWALTornWriteInReservedTailMatrix(t *testing.T) {
	const batches, per = 3, 2
	img, ends := encodeBatches(t, batchesOf(batches, per))
	b0, b1 := ends[batches-1], ends[batches]
	for cut := b0; cut <= b1; cut++ {
		torn := zeroed(reservedImage(img), cut, b1)
		want := wholeFrames(img, torn)
		w, got, err := recoverImage(t, torn, SyncAlways)
		if err != nil {
			t.Fatalf("cut %d: replay of a torn final write must succeed, got %v", cut, err)
		}
		wantDensePrefix(t, "cut", got, want)
		resumeAndReopen(t, "cut", w, want)
	}
}

// A batch spanning two pages whose second page reached the disk and whose
// first did not: the log ends at a zero header with live frames behind it.
// Those frames were never acknowledged and follow a hole; they must be cut,
// not replayed, and must not reappear once appends resume over the hole.
func TestWALSecondPageLandedFirstDidNot(t *testing.T) {
	const page = 4096
	batches := batchesOf(2, 3)
	lsn := uint64(6)
	var big []WALRecord
	for i := 0; i < 200; i++ { // ≈ 11 KiB: at least one whole page behind the hole
		lsn++
		big = append(big, appendRec(lsn, "big"))
	}
	img, ends := encodeBatches(t, append(batches, big))
	b0, b1 := ends[2], ends[3]
	hole := (b0/page + 1) * page // the first page boundary inside the batch
	if hole+page > b1 {
		t.Fatalf("batch [%d,%d) does not cover a whole page past %d", b0, b1, hole)
	}
	w, got, err := recoverImage(t, zeroed(reservedImage(img), b0, hole), SyncAlways)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	wantDensePrefix(t, "hole at the batch's first page", got, 6)
	resumeAndReopen(t, "hole at the batch's first page", w, 6)
}

// SyncOS forces nothing at ack time, so a power loss can take any subset of
// the pages written since the last force: later batches may be whole while an
// earlier one is missing or half there. The log ends at the first batch that
// is not whole, whatever follows it.
func TestWALSyncOSBatchesTornOutOfOrder(t *testing.T) {
	img, ends := encodeBatches(t, batchesOf(6, 2))
	mid := func(b int) int64 { return (ends[b-1] + ends[b]) / 2 }
	for _, c := range []struct {
		name     string
		from, to int64 // the bytes that never landed
	}{
		{"batch 3 missing, 4-6 whole", ends[2], ends[3]},
		{"batch 3 lost its second half, 4-6 whole", mid(3), ends[3]},
		{"batch 3 lost its first half, 4-6 whole", ends[2], mid(3)},
		{"batch 2 missing through half of 4, 5-6 whole", ends[1], mid(4)},
		{"only the last batch's tail missing", mid(6), ends[6]},
	} {
		torn := zeroed(reservedImage(img), c.from, c.to)
		want := wholeFrames(img, torn)
		w, got, err := recoverImage(t, torn, SyncOS)
		if err != nil {
			t.Fatalf("%s: replay: %v", c.name, err)
		}
		wantDensePrefix(t, c.name, got, want)
		resumeAndReopen(t, c.name, w, want)
	}
}

// The zero tail is what makes a bad frame a torn one. The same damage in a
// segment that was trimmed — every later frame valid up to the exact end of
// the file, the shape only a clean close leaves — is corruption and stays a
// typed error, in the last segment as in a sealed one.
func TestWALBadFrameIsTornOnlyBeforeAReservation(t *testing.T) {
	img, ends := encodeBatches(t, batchesOf(4, 1))
	bad := append([]byte(nil), img...)
	bad[ends[1]+frameHeader+3] ^= 0xff // payload byte of frame 2

	_, _, err := recoverImage(t, bad, SyncAlways)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.offset != ends[1] {
		t.Fatalf("trimmed segment, bad CRC mid-log: got %v, want *CorruptError at %d", err, ends[1])
	}
	w, got, err := recoverImage(t, reservedImage(bad), SyncAlways)
	if err != nil {
		t.Fatalf("live segment, bad CRC before the reservation: %v", err)
	}
	wantDensePrefix(t, "live segment", got, 1)
	resumeAndReopen(t, "live segment", w, 1)
}

// crashCopy copies a live WAL's segments and manifest to a fresh directory:
// the image a kill -9 leaves, the page cache surviving the process.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, filepath.Join(dir, manifestName))
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if errors.Is(err, os.ErrNotExist) {
			continue // no manifest yet
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(name)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// A killed process's segment is recovered to a clean zero tail, written into
// again in place, killed again, and recovered again; the final clean close
// leaves frames and nothing else.
func TestWALResumeAfterCleanTailSurvivesSecondCrash(t *testing.T) {
	appendN := func(w *WAL, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w1, err := OpenWAL(WALOptions{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	appendN(w1, 1, 5)

	crash1 := crashCopy(t, w1.Dir())
	live, err := os.ReadFile(filepath.Join(crash1, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if content := frameEnds(live); int64(len(live)) > content[len(content)-1] {
		// Reserved: the live file is longer than its content, by zeros only.
		if tail := live[content[len(content)-1]:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatal("a live segment's reservation holds non-zero bytes")
		}
	}
	w2, err := OpenWAL(WALOptions{Dir: crash1, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	wantDensePrefix(t, "first crash", got, 5)
	appendN(w2, 6, 3)

	crash2 := crashCopy(t, crash1)
	w3, err := OpenWAL(WALOptions{Dir: crash2, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, w3)
	wantDensePrefix(t, "second crash", got, 8)
	appendN(w3, 9, 1)
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.ReadFile(filepath.Join(crash2, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if content := frameEnds(closed); len(content) != 9 || content[8] != int64(len(closed)) {
		t.Fatalf("cleanly closed segment: %d frames ending at %v in a %d-byte file, want 9 frames and no tail", len(content), content, len(closed))
	}
}

// parentScan is the scan of the build before segments were written in place,
// kept as the reference a cleanly closed directory must still satisfy: frames
// back to back from the magic to the exact end of the file, a zero header
// being just another (invalid) frame.
func parentScan(path string) ([]WALRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, head); err != nil || !bytes.Equal(head, segMagic) {
		return nil, errors.New("bad file magic")
	}
	br := bufio.NewReader(f)
	hdr := make([]byte, frameHeader)
	var out []WALRecord
	for {
		if _, err := io.ReadFull(br, hdr); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, errors.New("incomplete frame header")
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr))
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, errors.New("incomplete frame payload")
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return nil, errors.New("CRC mismatch")
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Forward compatibility: whatever this build rotated, sealed and closed reads
// back under the parent's scan, segment by segment, as exactly the records
// appended.
func TestWALCleanCloseReplaysUnderParentScan(t *testing.T) {
	for _, mode := range []SyncMode{SyncOS, SyncAlways} {
		dir := t.TempDir()
		w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 1024, Sync: mode})
		if err != nil {
			t.Fatal(err)
		}
		var want []WALRecord
		for i := 1; i <= 60; i++ {
			rec := appendRec(uint64(i), "a")
			if err := w.AppendBatch([]WALRecord{rec}); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
			if i == 30 {
				if _, err := w.SealActive(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) < 4 {
			t.Fatalf("mode %v: want several rotated segments, got %d", mode, len(segs))
		}
		var got []WALRecord
		for _, seg := range segs { // Glob sorts, and the zero-padded names sort by index
			recs, err := parentScan(seg)
			if err != nil {
				t.Fatalf("mode %v: parent scan of %s: %v", mode, filepath.Base(seg), err)
			}
			got = append(got, recs...)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mode %v: parent scan read %d records (LSNs %v), want the %d appended", mode, len(got), lsns(got), len(want))
		}
	}
}

// Backward compatibility: directories the parent build wrote — closed, or
// killed mid-append so the last frame is short — hold frames flush against the
// end of the file and no reservation. Both open, and both take appends.
func TestWALParentWrittenDirectoryOpens(t *testing.T) {
	img, ends := encodeBatches(t, batchesOf(4, 2))
	for _, c := range []struct {
		name string
		img  []byte
		want int
	}{
		{"closed", img, 8},
		{"killed mid-append", img[:ends[4]-5], 7},
		{"killed mid-header", img[:ends[3]+3], 6},
	} {
		w, got, err := recoverImage(t, c.img, SyncAlways)
		if err != nil {
			t.Fatalf("%s: replay: %v", c.name, err)
		}
		wantDensePrefix(t, c.name, got, c.want)
		resumeAndReopen(t, c.name, w, c.want)
	}
}

// A sealed segment whose trim a crash beat to the disk still ends in its
// reservation. That is a clean end; damage in front of it is not forgiven —
// only the last segment can be caught mid-write.
func TestWALUntrimmedSealedSegment(t *testing.T) {
	first, ends := encodeBatches(t, batchesOf(3, 1))
	second, _ := encodeBatches(t, [][]WALRecord{{appendRec(4, "a")}})
	open := func(seg1 []byte) error {
		dir := t.TempDir()
		for i, img := range [][]byte{seg1, second} {
			if err := os.WriteFile(filepath.Join(dir, segName(uint64(i+1))), img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := OpenWAL(WALOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var got []WALRecord
		_, err = w.Replay(func(rec WALRecord) error {
			got = append(got, rec)
			return nil
		})
		if err == nil {
			wantDensePrefix(t, "untrimmed sealed segment", got, 4)
		}
		return err
	}
	if err := open(reservedImage(first)); err != nil {
		t.Fatalf("sealed segment with its reservation: %v", err)
	}
	var ce *CorruptError
	if err := open(zeroed(reservedImage(first), ends[1], ends[2])); !errors.As(err, &ce) {
		t.Fatalf("hole in a sealed segment: got %v, want *CorruptError", err)
	}
}

// Close must let go of every file it holds even when an early step fails:
// here the directory sync a SyncOS rotation deferred.
func TestWALCloseReleasesFilesWhenDirSyncFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	w, err := OpenWAL(WALOptions{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Append until a rotation went through a staged segment (leaving the
	// rename's directory sync owed) and the next one is staged and held.
	staged := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		for w.preparing {
			w.prepCond.Wait()
		}
		return w.dirDirty && w.next != nil
	}
	for i := 1; !staged(); i++ {
		if i > 1000 {
			t.Fatal("no rotation through a staged segment in 1000 appends")
		}
		if err := w.AppendBatch([]WALRecord{appendRec(uint64(i), "a")}); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	seg, next := w.seg, w.next
	w.mu.Unlock()
	// With the directory moved away, opening it to sync it fails.
	if err := os.Rename(dir, dir+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported success although the directory sync failed")
	}
	for name, f := range map[string]*os.File{"active segment": seg, "staged segment": next} {
		if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s still open after a failed Close (Sync: %v)", name, err)
		}
	}
}

// FuzzWALScan: the frame walker over arbitrary bytes after the magic, under
// every tail rule. It may refuse them or find an end, never panic, and —
// lengths being checked against the file before a buffer is sized — never
// allocate past the file's own size. A scan that repairs (endTorn) must leave
// a file the next scan accepts unchanged.
func FuzzWALScan(f *testing.F) {
	img, ends := encodeBatches(f, batchesOf(3, 2))
	body := img[len(segMagic):]
	f.Add(body)
	f.Add(body[:len(body)-5])
	f.Add(reservedImage(body)[:len(body)+64])
	f.Add(zeroed(reservedImage(body)[:len(body)+64], ends[1]-8, ends[2]-8))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}) // length just under maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}) // implausible length
	f.Add(make([]byte, 32))
	path := filepath.Join(f.TempDir(), segName(1)) // one worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, append(append([]byte(nil), segMagic...), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(len(segMagic) + len(data))
		count := func(tail tailRule) (int, int64, error) {
			n := 0
			end, err := scanFile(path, segMagic, int64(len(segMagic)), tail, func(WALRecord) error { n++; return nil })
			if err == nil && (end < int64(len(segMagic)) || end > size) {
				t.Fatalf("rule %d: end %d outside [%d,%d]", tail, end, len(segMagic), size)
			}
			return n, end, err
		}
		for _, tail := range []tailRule{endZeros} {
			count(tail)
		}
		n, end, err := count(endTorn)
		if err != nil {
			return
		}
		n2, end2, err := count(endTorn)
		if err != nil || n2 != n || end2 != end {
			t.Fatalf("rescan after repair: %d records to %d, %v; first scan had %d to %d", n2, end2, err, n, end)
		}
	})
}

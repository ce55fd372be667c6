package lsm

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// writeDamageTable writes a 40-key table (every third key with detail) into
// dir and returns its metadata as a manifest would name it.
func writeDamageTable(t *testing.T, dir string) tableMeta {
	t.Helper()
	w, err := newTableWriter(dir, tableName(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		k := testKey(i)
		recs := []storage.WALRecord{summaryRec(k, uint64(10*i+1), float64(i))}
		for j := 0; j < i%3; j++ {
			recs = append(recs, detailRec(k, uint64(10*i+2+j), j == 0, false))
		}
		for r := range recs {
			if err := w.add(&recs[r]); err != nil {
				t.Fatal(err)
			}
		}
	}
	tb, err := w.finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := tb.meta
	meta.Level, meta.Seq = 0, 1
	return meta
}

// sidecar builds bloom-sidecar bytes with the given geometry and bit array
// and a valid CRC, as marshal would lay them out.
func sidecar(nbits, k uint64, bits []byte) []byte {
	out := append([]byte(nil), blmMagic...)
	out = binary.AppendUvarint(out, nbits)
	out = binary.AppendUvarint(out, k)
	out = append(out, bits...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestBloomSidecarBadGeometryIsRebuilt: a sidecar whose CRC holds but whose
// geometry leaves probes nowhere to land — no bits at all, or a bit count so
// large that its byte count wraps to zero — is damage like any other. The
// store rebuilds the filter from the index at open, and the first cold read
// answers instead of panicking.
func TestBloomSidecarBadGeometryIsRebuilt(t *testing.T) {
	for _, tc := range []struct {
		name string
		blm  []byte
	}{
		{"zero bits", sidecar(0, bloomProbes, nil)},
		{"bit count wraps", sidecar(math.MaxUint64, bloomProbes, nil)},
		{"bit count past the array", sidecar(1<<20, bloomProbes, make([]byte, 8))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, Options{})
			var entries []storage.WALRecord
			for i := 0; i < 8; i++ {
				entries = append(entries, summaryRec(testKey(i), uint64(i+1), float64(i)))
			}
			if err := s.FlushTable(entries, 8, 0); err != nil {
				t.Fatal(err)
			}
			name := s.tables[0].meta.Name
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			blm := filepath.Join(s.opts.Dir, bloomName(name))
			if err := os.WriteFile(blm, tc.blm, 0o644); err != nil {
				t.Fatal(err)
			}
			s = openTestStore(t, dir, Options{})
			defer s.Close()
			for i := 0; i < 8; i++ {
				if rec, err := s.LookupSummary(testKey(i)); err != nil || rec == nil {
					t.Fatalf("LookupSummary(%d): %v, %v", i, rec, err)
				}
			}
			if _, err := loadBloom(blm); err != nil {
				t.Fatalf("open did not rewrite the damaged sidecar: %v", err)
			}
		})
	}
}

// TestOpenTableRejectsDamagedIndexFrame: every way the index frame can
// disagree with itself or with the footer fails openTable with an error.
func TestOpenTableRejectsDamagedIndexFrame(t *testing.T) {
	dir := t.TempDir()
	meta := writeDamageTable(t, dir)
	path := filepath.Join(dir, meta.Name)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := good[len(good)-footerSize:]
	indexOff := int64(binary.LittleEndian.Uint64(footer))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	payload := good[indexOff+storage.FrameHeader : indexOff+indexLen]
	// withIndex lays out the data block, index bytes idx and a footer naming
	// them: a table whose only defect is in idx.
	withIndex := func(idx []byte) []byte {
		out := append([]byte(nil), good[:indexOff]...)
		out = append(out, idx...)
		f := binary.LittleEndian.AppendUint64(nil, uint64(indexOff))
		f = binary.LittleEndian.AppendUint64(f, uint64(len(idx)))
		f = append(f, footer[16:24]...)
		f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(f))
		return append(append(out, f...), sstFootMag...)
	}
	// frame is a header claiming length bytes with the CRC of sumOf, then
	// body.
	frame := func(length uint32, sumOf, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, length)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(sumOf))
		return append(b, body...)
	}
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/2] ^= 0x01
	n := uint32(len(payload))
	for _, tc := range []struct {
		name string
		idx  []byte
	}{
		{"flipped payload byte", frame(n, payload, flipped)},
		{"frame shorter than the footer says", frame(n-1, payload[:n-1], payload)},
		{"frame longer than the footer says", frame(n+1, payload, payload)},
		{"frame cut inside its payload", frame(n, payload, payload)[:storage.FrameHeader+n/2]},
		{"frame cut inside its header", frame(n, payload, payload)[:storage.FrameHeader-3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, withIndex(tc.idx), 0o644); err != nil {
				t.Fatal(err)
			}
			tb, err := openTable(dir, meta)
			if err == nil {
				tb.close()
				t.Fatal("openTable accepted a damaged index frame")
			}
			t.Log(err)
		})
	}
	// A CRC-valid footer that puts the index at the file's end and gives it
	// a negative length, so that offset, length and footer still add up to
	// the file's size.
	past := withIndex(good[indexOff : indexOff+indexLen])
	f := past[len(past)-footerSize:]
	binary.LittleEndian.PutUint64(f, uint64(len(past)))
	length := -int64(footerSize)
	binary.LittleEndian.PutUint64(f[8:], uint64(length))
	binary.LittleEndian.PutUint32(f[24:], crc32.ChecksumIEEE(f[:24]))
	if err := os.WriteFile(path, past, 0o644); err != nil {
		t.Fatal(err)
	}
	if tb, err := openTable(dir, meta); err == nil {
		tb.close()
		t.Fatal("openTable accepted an index of negative length")
	}
	if err := os.WriteFile(path, withIndex(good[indexOff:indexOff+indexLen]), 0o644); err != nil {
		t.Fatal(err)
	}
	tb, err := openTable(dir, meta)
	if err != nil {
		t.Fatalf("the undamaged layout no longer opens: %v", err)
	}
	tb.close()
}

package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// FuzzTableDecode feeds arbitrary bytes to the two decoders that read table
// files: the index cursor and the frame walker, alone and with the walker
// driven by the offsets the cursor parsed (the shape of every real read).
// Any input must end in an error or a clean stop — never a panic, a slice out
// of range, or a buffer larger than the bytes that exist.
func FuzzTableDecode(f *testing.F) {
	dir := f.TempDir()
	w, err := newTableWriter(dir, tableName(1), nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		k := testKey(i)
		recs := []storage.WALRecord{summaryRec(k, uint64(10*i+1), float64(i))}
		for j := 0; j < i%3; j++ {
			recs = append(recs, detailRec(k, uint64(10*i+2+j), j == 0, false))
		}
		for r := range recs {
			if err := w.add(&recs[r]); err != nil {
				f.Fatal(err)
			}
		}
	}
	t, err := w.finish(nil)
	if err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, t.meta.Name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:t.indexOff])                                                    // magic + data block
	f.Add(file[t.indexOff+frameHeader : t.indexOff+t.indexLen])                 // index payload
	f.Add(append(bytes.Clone(sstMagic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))    // length past maxFrame
	f.Add(append(bytes.Clone(sstMagic), 0x00, 0x10, 0x00, 0x00, 0, 0, 0, 0, 1)) // length past the data

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		// Entries may point at overlapping ranges (zeros parse as a run of
		// empty frames and as a run of entries), so the walks share a budget,
		// charged for bytes buffered and frames walked, that keeps one input
		// linear in its size.
		budget := 8*size + 64
		walk := func(off, end int64) {
			fr := frameReader{src: bytes.NewReader(data), name: "fuzz", off: off, end: min(end, size)}
			for fr.off < fr.end && budget > 0 {
				frame, err := fr.next()
				if err != nil {
					break
				}
				budget -= int64(len(frame))
				if len(frame) < frameHeader || int64(len(frame)) > size {
					t.Fatalf("frame of %d bytes out of %d", len(frame), size)
				}
			}
			if int64(cap(fr.buf)) > size {
				t.Fatalf("buffered %d bytes to read %d", cap(fr.buf), size)
			}
			budget -= int64(cap(fr.buf))
		}
		walk(int64(len(sstMagic)), size)

		cur := indexCursor{b: data}
		var e indexEntry
		for {
			before := len(cur.b)
			ok, err := cur.next(&e)
			if err != nil || !ok {
				break
			}
			if len(cur.b) >= before {
				t.Fatal("index cursor did not advance")
			}
			walk(e.dataOff, e.dataOff+e.dataLen)
		}
	})
}

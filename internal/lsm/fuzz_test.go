package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// walkErrSlack covers what a walk allocates beside its buffer: the error
// value that ends it.
const walkErrSlack = 512

// allocSink keeps a measured allocation on the heap.
var allocSink []byte

// allocated is what fn allocates, as the allocator counts it: each object
// rounded up to its size class.
func allocated(fn func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// FuzzTableDecode feeds arbitrary bytes to the two decoders that read table
// files: the index cursor and the frame walker (storage.FrameReader, over a
// section as a table reads it), alone and with the walker driven by the
// offsets the cursor parsed (the shape of every real read). Any input must
// end in an error or a clean stop — never a panic, a frame that is not bytes
// of the input, or a buffer larger than the bytes that exist.
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
	t.close()
	file, err := os.ReadFile(filepath.Join(dir, t.meta.Name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:t.indexOff])                                                    // magic + data block
	f.Add(file[t.indexOff+storage.FrameHeader : t.indexOff+t.indexLen])         // index payload
	f.Add(append(bytes.Clone(sstMagic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))    // length past maxFrame
	f.Add(append(bytes.Clone(sstMagic), 0x00, 0x10, 0x00, 0x00, 0, 0, 0, 0, 1)) // length past the data

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		src := bytes.NewReader(data)
		// A walk holds one buffer no larger than its section, so no larger
		// than the input: what a buffer the input's size costs bounds it. A
		// section past storage's 256 KiB read-ahead may also hold the
		// read-ahead buffer a longer frame outgrew.
		buffers := allocated(func() { allocSink = make([]byte, size) })
		allocSink = nil
		if size > 256<<10 {
			buffers *= 2
		}
		// Entries may point at overlapping ranges (zeros parse as a run of
		// empty frames and as a run of entries), so the walks share a budget,
		// charged for bytes allocated and frames walked, that keeps one input
		// linear in its size.
		budget := 8*size + 64
		walk := func(off, end int64) {
			grew := allocated(func() {
				fr := storage.NewFrameReader(src, "fuzz", int64(len(sstMagic)), min(end, size))
				fr.MoveTo(off)
				for budget > 0 {
					at := fr.Off()
					if _, err := fr.Next(); err != nil {
						break
					}
					frame := fr.Frame()
					budget -= int64(len(frame))
					if len(frame) < storage.FrameHeader || at+int64(len(frame)) > size || !bytes.Equal(frame, data[at:at+int64(len(frame))]) {
						t.Fatalf("frame of %d bytes at %d is not bytes of the %d-byte input", len(frame), at, size)
					}
				}
			})
			if grew > buffers+walkErrSlack {
				t.Fatalf("walking %d bytes allocated %d", size, grew)
			}
			budget -= grew
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

// FuzzBloomDecode feeds arbitrary bytes to the bloom-sidecar parser. Any
// input must end in an error or in a filter every probe of which lands in its
// bit array: mayContain never panics, whatever the key.
func FuzzBloomDecode(f *testing.F) {
	bl := newBloom(40)
	for i := 0; i < 40; i++ {
		bl.add(keyHash(compositeKey(testKey(i))))
	}
	good := bl.marshal()
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(sidecar(0, bloomProbes, nil))                         // no bits
	f.Add(sidecar(1<<64-1, bloomProbes, nil))                   // bit count wraps the byte count
	f.Add(sidecar(1<<20, bloomProbes, make([]byte, 8)))         // bit count past the array
	f.Add(sidecar(64, 0, make([]byte, 8)))                      // no probes
	f.Add(append(sidecar(64, bloomProbes, make([]byte, 8)), 0)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		bl, err := decodeBloom(data)
		if err != nil {
			return
		}
		for _, h := range []uint64{0, 1, 1<<63 + 7, 1<<64 - 1, keyHash(data)} {
			bl.mayContain(h)
		}
	})
}

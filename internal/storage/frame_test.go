package storage

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// countingReaderAt counts the reads made of it.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// FuzzFrameSection walks a section [start, end) of arbitrary bytes, as a
// table reads its data block or one entry. Every frame must be bytes of the
// section; the walker's buffer never holds more than the section's bytes, so
// a forged length allocates nothing; a section no longer than the read-ahead
// costs at most one read; and CheckFrame accepts the section exactly when the
// walk finds one good frame filling it.
func FuzzFrameSection(f *testing.F) {
	var data []byte
	recs := streamRecords()
	for i := range recs {
		var err error
		if data, err = AppendFrame(data, &recs[i]); err != nil {
			f.Fatal(err)
		}
	}
	first := FrameHeader + binary.LittleEndian.Uint32(data)
	f.Add(data, uint32(0), uint32(len(data)))
	f.Add(data, uint32(0), uint32(first))                                   // one frame
	f.Add(data, uint32(3), uint32(len(data)-3))                             // starts inside a frame
	f.Add(make([]byte, 64), uint32(8), uint32(64))                          // zeros: an empty frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}, uint32(0), uint32(8)) // length past the section
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}, uint32(0), uint32(8)) // length past maxFrame
	f.Add(data, uint32(len(data)), uint32(0))                               // empty section
	f.Fuzz(func(t *testing.T, data []byte, start, end uint32) {
		size := int64(len(data))
		lo, hi := min(int64(start), size), min(int64(end), size)
		section := max(0, hi-lo)
		src := &countingReaderAt{r: bytes.NewReader(data)}
		fr := NewFrameReader(src, "fuzz", lo, hi)
		var frames int
		var whole bool // the first frame is good and fills the section
		for {
			at := fr.Off()
			_, err := fr.Next()
			if c := int64(cap(fr.buf)); c > section {
				t.Fatalf("a %d-byte section has a %d-byte buffer", section, c)
			}
			if err != nil {
				whole = whole && err == io.EOF
				break
			}
			frame := fr.Frame()
			n := int64(len(frame))
			if at < lo || at+n > hi || !bytes.Equal(frame, data[at:at+n]) {
				t.Fatalf("frame of %d bytes at %d is not bytes of the section [%d, %d)", n, at, lo, hi)
			}
			frames++
			whole = frames == 1 && n == section
		}
		if section <= readAhead && src.reads > 1 {
			t.Fatalf("a %d-byte section took %d reads", section, src.reads)
		}
		if _, err := CheckFrame(data[lo:max(lo, hi)]); (err == nil) != whole {
			t.Fatalf("CheckFrame says %v of a section the walk found whole: %v", err, whole)
		}
	})
}

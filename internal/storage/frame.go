// Frames: the unit of every copy of the log — WAL segments, record streams,
// and the data and index blocks of the cold tier's tables. A frame is
//
//	uint32 payload length | uint32 CRC32(payload) | payload
//
// (little-endian, IEEE CRC). This file holds the only code that writes a
// frame header (AppendFrameHeader) and the only code that decides whether
// bytes are a frame (checkFrame, driven by FrameReader and by CheckFrame).
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// FrameHeader is the size of a frame's header: the uint32 payload length
	// and the uint32 CRC32 of the payload, both little-endian.
	FrameHeader = 8
	// maxFrame bounds a single frame's payload. A length prefix beyond it is
	// treated as corruption rather than an allocation request.
	maxFrame = 1 << 28
)

// AppendFrame wraps rec's encoding in a length+CRC frame: its Payload when
// it carries one, else what EncodeRecord makes of it.
func AppendFrame(b []byte, rec *WALRecord) (_ []byte, err error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	if rec.Payload != nil {
		b = append(b, rec.Payload...)
	} else if b, err = EncodeRecord(b, rec); err != nil {
		return nil, err
	}
	return sealFrame(b, start), nil
}

// AppendFrameHeader appends the header of the frame whose payload is payload.
func AppendFrameHeader(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// sealFrame fills in the header placeholder at b[start:] for the payload
// that follows it.
func sealFrame(b []byte, start int) []byte {
	AppendFrameHeader(b[:start], b[start+FrameHeader:])
	return b
}

// frameVerdict is what checkFrame finds at a position.
type frameVerdict int

const (
	frameOK     frameVerdict = iota
	frameMore                // nothing wrong yet, but more bytes must be read to judge
	frameEnd                 // no bytes left
	frameShort               // the header or the payload runs past the end
	frameZero                // all-zero header: space no frame was written to
	frameHuge                // length beyond maxFrame
	frameBadSum              // payload does not match its CRC
)

var frameReasons = [...]string{
	frameEnd:    "no frame",
	frameShort:  "incomplete frame",
	frameZero:   "empty frame",
	frameHuge:   "implausible frame length",
	frameBadSum: "CRC mismatch",
}

// checkFrame judges the frame at the start of b, given that left bytes exist
// from there to the end of the data (len(b) <= left). It returns the verdict
// and the frame's size in bytes — for frameMore, how many must be in b to go
// on. Lengths are judged against left before the payload is needed, so a
// forged length never asks for bytes that do not exist.
func checkFrame(b []byte, left int64) (frameVerdict, int) {
	if len(b) < FrameHeader {
		switch {
		case int64(len(b)) < left:
			return frameMore, FrameHeader
		case len(b) == 0:
			return frameEnd, 0
		}
		return frameShort, 0
	}
	length := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	n := FrameHeader + int(length)
	switch {
	case length == 0 && sum == 0:
		return frameZero, 0
	case length > maxFrame:
		return frameHuge, 0
	case int64(n) > left:
		return frameShort, 0
	case len(b) < n:
		return frameMore, n
	case crc32.ChecksumIEEE(b[FrameHeader:n]) != sum:
		return frameBadSum, n
	}
	return frameOK, n
}

// CheckFrame judges b, read whole, as exactly one frame and returns its
// payload. Anything else — no frame, or one that ends before b does — is an
// error.
func CheckFrame(b []byte) ([]byte, error) {
	switch verdict, n := checkFrame(b, int64(len(b))); {
	case verdict != frameOK:
		return nil, fmt.Errorf("storage: %s", frameReasons[verdict])
	case n < len(b):
		return nil, fmt.Errorf("storage: frame ends %d bytes early", len(b)-n)
	}
	return b[FrameHeader:], nil
}

const (
	// readAhead is how much a file's FrameReader reads at once: a sequential
	// pass over a segment or a table's data block costs one read per this
	// many bytes, and a section no longer (one table entry) one read of
	// exactly its bytes.
	readAhead = 256 << 10
	// streamStart is a stream's first buffer; it grows as bytes arrive.
	streamStart = 32 << 10
)

// FrameReader walks frames: through a section [start, end) of a file —
// segment, table data block, one table entry — or through a stream. A
// file's frame is checked against the bytes its section has left before a
// buffer is sized for it, and a stream's buffer grows with the bytes that
// have arrived, never with the length a header claims: a forged length
// cannot make the reader allocate past the bytes it was given. The end of a
// file's data is still its EOF — a sealed segment's zero tail may be trimmed
// away (retire) under a scan — which shortens the section.
type FrameReader struct {
	at     io.ReaderAt // the file; nil for a stream
	rd     io.Reader   // the stream
	name   string      // the source, for errors
	start  int64       // no frame begins before it
	off    int64       // position of the next frame
	end    int64       // no frame reaches past it
	buf    []byte      // buf[lo:hi] are the source's bytes from off on
	lo, hi int
	frame  []byte // the frame Next last stepped past
}

// NewFrameReader walks the frames of src's bytes [start, end), from start.
// name identifies src in errors.
func NewFrameReader(src io.ReaderAt, name string, start, end int64) FrameReader {
	return FrameReader{at: src, name: name, start: start, off: start, end: end}
}

// Off is the position of the next frame.
func (r *FrameReader) Off() int64 { return r.off }

// MoveTo moves a file's walker to off. Bytes already read from there on are
// kept; a position outside the section has no frame.
func (r *FrameReader) MoveTo(off int64) {
	if d := off - r.off; d >= 0 && d <= int64(r.hi-r.lo) {
		r.lo += int(d)
	} else {
		r.lo, r.hi = 0, 0
	}
	r.off = off
}

// Next returns the payload of the frame at the walker's position, valid
// until the next call, and steps past it. No byte left before the end is
// io.EOF; a frame the end cuts short is io.ErrUnexpectedEOF, wrapped; a frame
// that is empty, longer than maxFrame or fails its CRC is a *CorruptError.
func (r *FrameReader) Next() ([]byte, error) {
	at := r.off
	verdict, err := r.next()
	switch {
	case err != nil:
		return nil, err
	case verdict == frameOK:
		return r.frame[FrameHeader:], nil
	case verdict == frameEnd:
		return nil, io.EOF
	case verdict == frameShort:
		return nil, fmt.Errorf("storage: %s: frame at offset %d cut short: %w", r.name, at, io.ErrUnexpectedEOF)
	}
	return nil, &CorruptError{file: r.name, offset: at, Reason: frameReasons[verdict]}
}

// Frame is the whole frame — header and payload — Next last returned the
// payload of, to copy as it is. It is valid until the next call.
func (r *FrameReader) Frame() []byte { return r.frame }

// next judges the frame at the position and, when it is whole — good, or
// failing its CRC — makes it Frame and steps past it. Errors are I/O errors;
// everything the bytes can cause is a verdict.
func (r *FrameReader) next() (frameVerdict, error) {
	for need := FrameHeader; ; {
		if err := r.fill(need); err != nil {
			return 0, err
		}
		verdict, n := checkFrame(r.buf[r.lo:r.hi], r.left())
		if verdict == frameMore {
			need = n
			continue
		}
		if verdict == frameOK || verdict == frameBadSum {
			r.frame = r.buf[r.lo : r.lo+n]
			r.MoveTo(r.off + int64(n))
		}
		return verdict, nil
	}
}

// left is how many bytes the source has from the position to the end.
func (r *FrameReader) left() int64 {
	if r.off < r.start {
		return 0
	}
	return r.end - r.off
}

// fill buffers the next n bytes from the position, or all there are before
// the end. A source that ends early moves the end to where it ended.
func (r *FrameReader) fill(n int) error {
	for r.hi-r.lo < n {
		have, left := r.hi-r.lo, r.left()
		if int64(have) >= left {
			return nil
		}
		room := int(min(int64(max(n, readAhead)), left))
		if r.at == nil {
			room = min(room, max(2*have, streamStart))
		}
		buf := r.buf[:cap(r.buf)]
		if cap(buf) < room {
			buf = make([]byte, room)
		}
		copy(buf, r.buf[r.lo:r.hi])
		r.buf, r.lo, r.hi = buf, 0, have
		var got int
		var err error
		if r.at != nil {
			got, err = r.at.ReadAt(r.buf[have:room], r.off+int64(have))
		} else {
			got, err = r.rd.Read(r.buf[have:room])
		}
		r.hi += got
		if err == io.EOF {
			r.end = r.off + int64(r.hi)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// restIsZero consumes the remaining bytes and reports whether all are zero.
func (r *FrameReader) restIsZero() (bool, error) {
	for {
		err := r.fill(readAhead)
		if rest := r.buf[r.lo:r.hi]; err != nil || len(rest) == 0 || len(bytes.Trim(rest, "\x00")) > 0 {
			return err == nil && len(rest) == 0, err
		}
		r.MoveTo(r.off + int64(r.hi-r.lo))
	}
}

// validToEnd consumes the remaining bytes and reports whether they are valid
// frames, none or more, ending exactly where the bytes do.
func (r *FrameReader) validToEnd() (bool, error) {
	for {
		verdict, err := r.next()
		if err != nil || verdict != frameOK {
			return verdict == frameEnd, err
		}
	}
}

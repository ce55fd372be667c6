// Record streams: a copy of the log on its way out of a process.
//
// Every record that leaves a process — a backup, lsdb's Save, a replication
// ship body, a catch-up reply — travels in the frames the WAL writes. A
// record frame's payload is EncodeRecord's. A stream's own bookkeeping
// (headers, counts, the trailer) rides in control frames: a letter tag, then
// uvarints, then an optional raw tail. Record kinds are 0–3, so neither kind
// of frame reads as the other.
//
// Both ends run the same build: the reader accepts a record only in exactly
// the bytes this build encodes it to, and uvarints only in minimal form, so a
// stream that reads back re-encodes to itself.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// TagTrailer tags the frame that closes a stream; its one value is the
// number of frames before it.
const TagTrailer byte = 'Z'

// AppendControl appends a control frame: tag, each value as a uvarint, then
// tail.
func AppendControl(b []byte, tag byte, tail []byte, vals ...uint64) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, tag)
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return sealFrame(append(b, tail...), start)
}

// ParseControl reads a control payload written by AppendControl with the
// same tag and number of values: it fills vals and returns the tail, which
// aliases payload.
func ParseControl(payload []byte, tag byte, vals ...*uint64) ([]byte, error) {
	if len(payload) == 0 || payload[0] != tag {
		return nil, fmt.Errorf("storage: stream: want a %q frame", tag)
	}
	rest := payload[1:]
	for _, v := range vals {
		x, n := binary.Uvarint(rest)
		if n <= 0 || (n > 1 && rest[n-1] == 0) { // only a padded uvarint ends in 0x00
			return nil, fmt.Errorf("storage: stream: malformed %q frame", tag)
		}
		*v, rest = x, rest[n:]
	}
	return rest, nil
}

// StreamWriter writes frames to w, 64 KiB at a time. The first error sticks.
type StreamWriter struct {
	w      io.Writer
	buf    []byte
	frames int
	err    error
}

// NewStreamWriter starts a frame stream on w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Record appends rec as a record frame.
func (s *StreamWriter) Record(rec *WALRecord) error {
	if s.err == nil {
		if s.buf, s.err = AppendFrame(s.buf, rec); s.err == nil {
			s.wrote()
		}
	}
	return s.err
}

// Control appends a control frame (see AppendControl).
func (s *StreamWriter) Control(tag byte, tail []byte, vals ...uint64) error {
	if s.err == nil {
		s.buf = AppendControl(s.buf, tag, tail, vals...)
		s.wrote()
	}
	return s.err
}

func (s *StreamWriter) wrote() {
	if s.frames++; len(s.buf) >= 64<<10 {
		s.flush()
	}
}

// flush writes out what is buffered.
func (s *StreamWriter) flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
	return s.err
}

// Close ends the stream with its trailer and flushes.
func (s *StreamWriter) Close() error {
	s.Control(TagTrailer, nil, uint64(s.frames))
	return s.flush()
}

// StreamReader reads a frame stream through the one frame walker, so a
// forged length costs the sender the bytes, not the reader the allocation.
type StreamReader struct {
	fr      FrameReader
	frames  int
	scratch []byte // the last record, re-encoded
}

// NewStreamReader reads a frame stream from r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{fr: FrameReader{rd: r, name: "stream", end: math.MaxInt64}}
}

// Next returns the next frame's payload, valid until the next call. At the
// end of the stream, between two frames, it returns io.EOF, and inside one
// io.ErrUnexpectedEOF. A frame that is empty, longer than maxFrame or fails
// its CRC is a *CorruptError.
func (s *StreamReader) Next() ([]byte, error) {
	p, err := s.fr.Next()
	if err == nil {
		s.frames++
	}
	return p, err
}

// Record reads the next frame as a record; io.EOF means the stream ended
// cleanly before it.
func (s *StreamReader) Record() (WALRecord, error) {
	at := s.fr.Off()
	p, err := s.Next()
	if err != nil {
		return WALRecord{}, err
	}
	rec, err := s.exact(p)
	if err != nil {
		return WALRecord{}, &CorruptError{file: "stream", offset: at, Reason: err.Error()}
	}
	return rec, nil
}

// exact decodes a record payload, accepting it only in the bytes
// EncodeRecord writes for what it decodes to.
func (s *StreamReader) exact(p []byte) (WALRecord, error) {
	rec, err := DecodeRecord(p)
	if err == nil {
		s.scratch, err = EncodeRecord(s.scratch[:0], &rec)
	}
	if err == nil && !bytes.Equal(s.scratch, p) {
		err = errors.New("record not in this build's encoding")
	}
	return rec, err
}

// Control reads the next frame as a control frame with the given tag (see
// ParseControl). A control frame is never optional: a clean end of stream
// before it is io.ErrUnexpectedEOF.
func (s *StreamReader) Control(tag byte, vals ...*uint64) ([]byte, error) {
	p, err := s.Next()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return ParseControl(p, tag, vals...)
}

// Close reads the trailer and requires the stream to end right after it.
func (s *StreamReader) Close() error {
	want := uint64(s.frames)
	var n uint64
	if _, err := s.Control(TagTrailer, &n); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("storage: stream: trailer counts %d frames, read %d", n, want)
	}
	if _, err := s.fr.Next(); err != io.EOF {
		return errors.New("storage: stream: bytes after the trailer")
	}
	return nil
}

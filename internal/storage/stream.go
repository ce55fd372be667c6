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
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// FrameHeader is the size of a frame's header: the uint32 payload length
	// and the uint32 CRC32 of the payload, both little-endian.
	FrameHeader = 8
	// MaxFrame bounds a single frame's payload. A length prefix beyond it is
	// treated as corruption rather than an allocation request.
	MaxFrame = 1 << 28
	// TagTrailer tags the frame that closes a stream; its one value is the
	// number of frames before it.
	TagTrailer byte = 'Z'
)

// AppendFrame wraps rec's encoding in a length+CRC frame: its Payload when
// it carries one, else what EncodeRecord makes of it.
func AppendFrame(b []byte, rec *WALRecord) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	if rec.Payload != nil {
		return sealFrame(append(b, rec.Payload...), start), nil
	}
	b, err := EncodeRecord(b, rec)
	if err != nil {
		return nil, err
	}
	return sealFrame(b, start), nil
}

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

func sealFrame(b []byte, start int) []byte {
	payload := b[start+FrameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
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

// StreamReader reads a frame stream through the WAL's frame walker, so a
// forged length costs the sender the bytes, not the reader the allocation.
type StreamReader struct {
	fr      frameReader
	frames  int
	scratch []byte // the last record, re-encoded
}

// NewStreamReader reads a frame stream from r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{fr: frameReader{br: bufio.NewReaderSize(r, 32<<10), size: -1}}
}

// Next returns the next frame's payload, valid until the next call. At the
// end of the stream, between two frames, it returns io.EOF, and inside one
// io.ErrUnexpectedEOF. A frame that is empty, longer than MaxFrame or fails
// its CRC is a *CorruptError.
func (s *StreamReader) Next() ([]byte, error) {
	at := s.fr.off
	p, verdict, err := s.fr.next()
	switch {
	case err != nil:
		return nil, err
	case verdict == frameOK:
		s.frames++
		return p, nil
	case verdict == frameEnd:
		return nil, io.EOF
	case verdict == frameShort:
		return nil, fmt.Errorf("storage: stream: frame at offset %d cut short: %w", at, io.ErrUnexpectedEOF)
	}
	reason := [...]string{frameZero: "empty frame", frameHuge: "implausible frame length", frameBadSum: "CRC mismatch"}[verdict]
	return nil, &CorruptError{file: "stream", offset: at, Reason: reason}
}

// Record reads the next frame as a record; io.EOF means the stream ended
// cleanly before it.
func (s *StreamReader) Record() (WALRecord, error) {
	at := s.fr.off
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
	if _, err := s.fr.br.Peek(1); err != io.EOF {
		if err != nil {
			return err
		}
		return errors.New("storage: stream: bytes after the trailer")
	}
	return nil
}

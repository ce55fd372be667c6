// The resident log: each shard's committed records, held as bytes.
//
// An in-memory unit retains every record it committed (principle 2.7: the
// past is summarised, never discarded), so its log is its largest live
// object. Held as Go values — a Record with its key strings, op slice, boxed
// values and txn id — every retained record would be pointers the collector
// re-traces on every cycle, for records that are read again only by a
// cache-miss rollup, History, AsOf, RecordsFor/RecordsAfterN and the flush
// capture. So a record lives as its encoding (storage.EncodeRecord's bytes,
// the WAL's payload format) — the one its commit cycle made for the WAL,
// copied in as the cycle installs it — in append-only segments of
// pointer-free memory: a byte slab plus an LSN table and an end-offset
// table. The readers above decode what they return and
// nothing else; the exactly-once lookup, the flush's settled horizon and
// settling a promise read the record's header (txn id, flag byte) in place,
// and a settlement flips its flag bits there.
//
// Segment bytes are written only under the shard's write lock, and never
// leave the shard as sub-slices: every reader decodes or copies what it needs
// under at least the read lock. That is what lets a segment be appended to,
// flagged and compacted in place.
package lsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/storage"
)

// segment is a run of committed records, LSN ascending. A shard's sealed
// segments and its active one ascend in that order too, so its whole log is
// one LSN-ascending run.
type segment struct {
	buf  []byte   // the records' encodings, back to back
	lsns []uint64 // lsns[i] is record i's LSN
	ends []uint32 // record i is buf[ends[i-1]:ends[i]] (from 0 for i == 0)
}

const (
	// maxFirstSlab caps the slab a shard's first segment is given on the
	// strength of its first records alone.
	maxFirstSlab = 1 << 20
	// minSlabRoom is the room an append wants before encoding: a slab with
	// less doubles first.
	minSlabRoom = 256
	// maxSlabBytes seals a segment early, so end offsets fit in 32 bits
	// whatever the records weigh.
	maxSlabBytes = 1 << 30
)

func (g *segment) len() int     { return len(g.lsns) }
func (g *segment) last() uint64 { return g.lsns[len(g.lsns)-1] }

// record returns record i's encoding. It aliases the slab: the caller holds
// the shard lock and lets it go nowhere.
func (g *segment) record(i int) []byte {
	var start uint32
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.buf[start:g.ends[i]:g.ends[i]]
}

// installLocked puts a commit cycle's records, their LSNs assigned, onto the
// active segment and returns how many bytes they took: a record's Payload
// when it carries one (the commit cycle's one encoding), its EncodeRecord
// bytes otherwise. A cycle's records share one segment: one that does not
// fit seals the active segment short first. The caller holds the shard's
// write lock. On an error — a record whose values bypassed
// entity.SanitizeOps, or a cycle of gigabytes — none of recs is installed.
func (s *shard) installLocked(recs []Record, segmentSize int) (int64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	g := &s.active
	if n := g.len(); n > 0 && (n+len(recs) > segmentSize || len(g.buf) >= maxSlabBytes) {
		s.sealLocked()
	}
	if g.lsns == nil {
		n := max(segmentSize, len(recs))
		g.lsns, g.ends = make([]uint64, 0, n), make([]uint32, 0, n)
		g.buf = make([]byte, 0, s.nextSlab)
	}
	n, size := len(g.lsns), len(g.buf)
	for i := range recs {
		if cap(g.buf)-len(g.buf) < minSlabRoom {
			g.buf = append(make([]byte, 0, 2*cap(g.buf)+minSlabRoom), g.buf...)
		}
		buf, err := g.buf, error(nil)
		if recs[i].Payload != nil {
			buf = append(buf, recs[i].Payload...)
		} else {
			buf, err = storage.EncodeRecord(buf, &recs[i])
		}
		if err == nil && uint64(len(buf)) > math.MaxUint32 {
			err = errors.New("segment slab past 4 GiB")
		}
		if err != nil {
			g.buf, g.lsns, g.ends = g.buf[:size], g.lsns[:n], g.ends[:n]
			return 0, fmt.Errorf("lsdb: record %d of %s: %w", recs[i].LSN, recs[i].Key, err)
		}
		g.buf = buf
		g.lsns = append(g.lsns, recs[i].LSN)
		g.ends = append(g.ends, uint32(len(buf)))
	}
	added := int64(len(g.buf) - size)
	if s.nextSlab == 0 {
		// A shard's first segment is sized from its first records, a
		// quarter more for luck, rather than doubled up from nothing; a
		// later one is sized after its predecessor.
		avg := len(g.buf) / g.len()
		s.nextSlab = min(segmentSize*avg+segmentSize*avg/4, maxFirstSlab)
		if s.nextSlab > cap(g.buf) {
			g.buf = append(make([]byte, 0, s.nextSlab), g.buf...)
		}
	}
	if g.len() >= segmentSize {
		s.sealLocked()
	}
	return added, nil
}

// sealLocked closes the active segment, giving back the room a short or
// over-grown one has left, and sizes the next slab after it.
func (s *shard) sealLocked() {
	g := s.active
	s.active = segment{}
	if g.len() == 0 {
		return
	}
	g.buf, g.lsns, g.ends = trimmed(g.buf), trimmed(g.lsns), trimmed(g.ends)
	s.sealed = append(s.sealed, g)
	s.nextSlab = len(g.buf) + len(g.buf)/8
}

// trimmed returns v, copied to a right-sized array when more than a quarter
// of its capacity is unused.
func trimmed[T any](v []T) []T {
	if cap(v)-len(v) <= len(v)/4 {
		return v
	}
	return append(make([]T, 0, len(v)), v...)
}

// locateLocked finds the record with the given LSN: its segment and index,
// or nil when it was compacted away (or is another shard's). The caller holds
// the shard lock.
func (s *shard) locateLocked(lsn uint64) (*segment, int) {
	g := &s.active
	if k := sort.Search(len(s.sealed), func(k int) bool { return s.sealed[k].last() >= lsn }); k < len(s.sealed) {
		g = &s.sealed[k]
	}
	if i, ok := slices.BinarySearch(g.lsns, lsn); ok {
		return g, i
	}
	return nil, 0
}

// decodeLocked decodes record i of g. The bytes were encoded by this process
// and are only ever changed by a settlement's flag bits, so a failure is a
// broken invariant, not an input error.
func (s *shard) decodeLocked(g *segment, i int) Record {
	if s.decodes != nil {
		s.decodes.Add(1)
	}
	rec, err := storage.DecodeRecord(g.record(i))
	if err != nil {
		panic(fmt.Sprintf("lsdb: resident record %d does not decode: %v", g.lsns[i], err))
	}
	return rec
}

// recordLocked decodes the record with the given LSN, if the shard holds it.
func (s *shard) recordLocked(lsn uint64) (Record, bool) {
	g, i := s.locateLocked(lsn)
	if g == nil {
		return Record{}, false
	}
	return s.decodeLocked(g, i), true
}

// headerLocked reads the header of the record with the given LSN in place;
// its TxnID aliases the slab, so it must not outlive the lock hold.
func (s *shard) headerLocked(lsn uint64) (storage.AppendHeader, bool) {
	g, i := s.locateLocked(lsn)
	if g == nil {
		return storage.AppendHeader{}, false
	}
	h, err := storage.ReadAppendHeader(g.record(i))
	if err != nil {
		panic(fmt.Sprintf("lsdb: resident record %d has no header: %v", lsn, err))
	}
	return h, true
}

// flagLocked sets the obsolete flag of the shard's record at lsn in place, or
// with keep clears its tentative flag. The caller holds the write lock.
func (s *shard) flagLocked(lsn uint64, keep bool) {
	g, i := s.locateLocked(lsn)
	if g == nil {
		panic(fmt.Sprintf("lsdb: record %d is not in the log", lsn))
	}
	flip := storage.MarkObsolete
	if keep {
		flip = storage.ClearTentative
	}
	if err := flip(g.record(i)); err != nil {
		panic(fmt.Sprintf("lsdb: resident record %d has no header: %v", lsn, err))
	}
}

// dropLocked removes the records whose LSNs gone lists (ascending, all of
// them in this shard's log). Only the kept records' bytes move, within their
// segment; a sealed segment then gives back the room it lost as a seal would,
// and one left empty goes. The caller holds the shard's write lock.
func (s *shard) dropLocked(gone []uint64) {
	sealed := s.sealed[:0]
	for _, g := range s.sealed {
		gone = g.drop(gone)
		if g.len() > 0 {
			g.buf, g.lsns, g.ends = trimmed(g.buf), trimmed(g.lsns), trimmed(g.ends)
			sealed = append(sealed, g)
		}
	}
	clear(s.sealed[len(sealed):])
	s.sealed = sealed
	s.active.drop(gone)
}

// drop removes from g, in place, the records whose LSNs the front of gone
// lists and returns the rest of gone, the LSNs past g. A kept record only
// moves towards the front, over bytes and table slots already read.
func (g *segment) drop(gone []uint64) []uint64 {
	if g.len() == 0 {
		return gone
	}
	n := sort.Search(len(gone), func(i int) bool { return gone[i] > g.last() })
	if n == 0 {
		return gone
	}
	var start, size uint32
	kept, j := 0, 0
	for i, lsn := range g.lsns {
		end := g.ends[i]
		for j < n && gone[j] < lsn {
			j++
		}
		if j == n || gone[j] != lsn {
			size += uint32(copy(g.buf[size:], g.buf[start:end]))
			g.lsns[kept], g.ends[kept] = lsn, size
			kept++
		}
		start = end
	}
	g.buf, g.lsns, g.ends = g.buf[:size], g.lsns[:kept], g.ends[:kept]
	return gone[n:]
}

// lenLocked returns how many records the shard's log holds.
func (s *shard) lenLocked() int {
	n := s.active.len()
	for i := range s.sealed {
		n += s.sealed[i].len()
	}
	return n
}

// logCursor walks one shard's log in LSN order.
type logCursor struct {
	s   *shard
	seg int // index into s.sealed; len(s.sealed) is the active segment
	i   int
}

// cursorAfterLocked returns a cursor at the shard's first record above
// after: one binary search over the segments, one within.
func (s *shard) cursorAfterLocked(after uint64) logCursor {
	c := logCursor{s: s, seg: sort.Search(len(s.sealed), func(k int) bool { return s.sealed[k].last() > after })}
	g := c.segment()
	c.i = sort.Search(g.len(), func(i int) bool { return g.lsns[i] > after })
	return c
}

func (c *logCursor) segment() *segment {
	if c.seg < len(c.s.sealed) {
		return &c.s.sealed[c.seg]
	}
	return &c.s.active
}

func (c *logCursor) valid() bool { return c.i < c.segment().len() }
func (c *logCursor) lsn() uint64 { return c.segment().lsns[c.i] }

// next moves to the following record; sealed segments are never empty, so
// past the last one the cursor is on the active segment or invalid.
func (c *logCursor) next() {
	c.i++
	if c.seg < len(c.s.sealed) && c.i == c.s.sealed[c.seg].len() {
		c.seg, c.i = c.seg+1, 0
	}
}

// remaining counts the records from the cursor to the end of the log.
func (c *logCursor) remaining() int {
	n := c.segment().len() - c.i
	for k := c.seg + 1; k < len(c.s.sealed); k++ {
		n += c.s.sealed[k].len()
	}
	if c.seg < len(c.s.sealed) {
		n += c.s.active.len()
	}
	return n
}

// Background compaction: merge every level-0 table plus the existing
// level-1 run into a fresh level-1 run.
//
// Merge rules, per key across the inputs:
//
//   - The newest summary wins (highest table Seq among inputs holding one);
//     older summaries for the key are dropped — they are strict prefixes of
//     the winner's rollup.
//   - Detail records at or below the winning summary's horizon are dropped:
//     the summary already folds them in. Detail above the horizon is
//     retained (live tentative promises and recent settled records the next
//     flush's summary has not yet covered), deduplicated by LSN across
//     overlapping tables.
//   - Obsolete detail (withdrawn promises, flagged by a break settlement
//     that reached a later flush) is eliminated outright — this is where
//     tombstones die, mirroring what Compact does to the in-memory index.
//
// The merge streams: every input is read through one sequential frameReader,
// and a key that needs none of the rules above — held by exactly one input,
// summary only, which is almost every level-1 key a level-0 table does not
// touch — is copied through as already-framed bytes, never decoded.
//
// The compactor yields while a flush's foreground fsync is active and
// sleeps CompactThrottle per throttleBytes of merged output, so background
// merging never monopolises the disk against the commit path.
package lsm

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/storage"
)

// throttleBytes is the compactor's unit of work between pauses: one output
// block. Pacing by bytes rather than keys keeps the pause proportional to
// the work now that most keys cost a memcpy.
const throttleBytes = 64 << 10

// compactorLoop waits for flush signals and drains the level-0 backlog.
func (s *Store) compactorLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
			for {
				s.mu.Lock()
				due := !s.closed && s.l0CountLocked() >= s.opts.CompactAfter
				s.mu.Unlock()
				if !due {
					break
				}
				if err := s.CompactNow(); err != nil {
					break // counted; wait for the next flush to retrigger
				}
			}
		}
	}
}

// mergeIter walks one input table key-group by key-group: the index cursor
// names the current key, the frame reader stands at that key's first frame.
// The entry is read in place, its key bytes still those of the index block,
// so advancing allocates nothing.
type mergeIter struct {
	t   *table
	cur indexCursor
	fr  frameReader
	e   rawEntry
	ck  []byte // composite of e's key, rebuilt in place per advance
	ok  bool
}

func newMergeIter(t *table) (*mergeIter, error) {
	payload, err := t.indexPayload()
	if err != nil {
		return nil, err
	}
	it := &mergeIter{t: t, cur: indexCursor{b: payload}, fr: t.frames(0, t.indexOff)}
	return it, it.advance()
}

func (it *mergeIter) advance() error {
	ok, err := it.cur.nextRaw(&it.e)
	if err != nil {
		return fmt.Errorf("lsm: table %s: %w", it.t.meta.Name, err)
	}
	if it.ok = ok; ok {
		it.ck = appendComposite(it.ck[:0], it.e.typ, it.e.id)
		it.fr.off = int64(it.e.dataOff)
	}
	return nil
}

// CompactNow runs one compaction pass synchronously: all current level-0
// tables plus the level-1 run merge into a new level-1 run. It is a no-op
// when there is nothing at level 0. Exported for tests and tooling; the
// background loop calls it on the flush trigger.
func (s *Store) CompactNow() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	fail := func(err error) error {
		s.compactFailures.Add(1)
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	var inputs []*table
	for _, t := range s.tables {
		if t.meta.Level <= 1 {
			inputs = append(inputs, t)
		}
	}
	l0 := s.l0CountLocked()
	s.mu.Unlock()
	if l0 == 0 {
		return nil
	}
	seq := s.nextSeq.Add(1) - 1
	t, err := s.mergeTables(inputs, seq)
	if err != nil {
		return fail(err)
	}
	out := t.meta
	if err := s.runBreakpoint("compact:pre-manifest"); err != nil {
		// Simulated crash after the output table landed but before the
		// manifest names it: the orphan sweep reclaims it on the next open.
		return fail(err)
	}
	if err := t.open(s.opts.Dir); err != nil {
		return fail(err)
	}
	dead := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		dead[in.meta.Name] = true
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		t.close()
		return storage.ErrClosed
	}
	man := s.man
	man.Seq++
	man.NextTable = s.nextSeq.Load()
	var keep []tableMeta
	for _, m := range s.man.Tables {
		if !dead[m.Name] {
			keep = append(keep, m)
		}
	}
	man.Tables = append(keep, out)
	sortTables(man.Tables)
	if out.Watermark > man.Watermark {
		man.Watermark = out.Watermark
	}
	if err := installManifest(s.opts.Dir, man); err != nil {
		s.mu.Unlock()
		t.close()
		return fail(err)
	}
	s.man = man
	var live []*table
	for _, old := range s.tables {
		if !dead[old.meta.Name] {
			live = append(live, old)
		}
	}
	s.tables = insertTable(live, t)
	s.mu.Unlock()
	s.compactions.Add(1)
	if err := s.runBreakpoint("compact:pre-delete"); err != nil {
		// Manifest already superseded the inputs; leftover files are swept as
		// orphans on the next open.
		return nil
	}
	s.removeInputs(inputs)
	return nil
}

// removeInputs deletes superseded table files. The *os.File handles stay
// open: an in-flight cold read may still hold a snapshot of the old table
// slice, and on POSIX an unlinked open file reads fine until the last
// reference drops (the runtime's file finalizers reclaim the descriptors).
func (s *Store) removeInputs(inputs []*table) {
	for _, in := range inputs {
		os.Remove(filepath.Join(s.opts.Dir, in.meta.Name))
		os.Remove(filepath.Join(s.opts.Dir, bloomName(in.meta.Name)))
	}
	storage.SyncDir(s.opts.Dir)
}

// mergeTables k-way merges the inputs into one new level-1 table.
func (s *Store) mergeTables(inputs []*table, seq uint64) (*table, error) {
	iters := make([]*mergeIter, 0, len(inputs))
	for _, in := range inputs {
		it, err := newMergeIter(in)
		if err != nil {
			return nil, err
		}
		if it.ok {
			iters = append(iters, it)
		}
	}
	// The output holds at most every input's keys, and its index entries
	// are the inputs' with new offsets (a sixteenth of slack covers the
	// offsets' longer varints).
	var watermark, keys uint64
	var indexBytes int64
	for _, in := range inputs {
		watermark = max(watermark, in.meta.Watermark)
		keys += in.count
		indexBytes += in.indexLen
	}
	w, err := newTableWriter(s.opts.Dir, tableName(seq), nil)
	if err != nil {
		return nil, err
	}
	w.reserve(int(keys), int(indexBytes+indexBytes/16))
	m := keyMerger{w: w}
	paced := w.off
	for len(iters) > 0 {
		// Smallest key across the iterators; participants are every iterator
		// positioned on it.
		minKey := iters[0].ck
		for _, it := range iters[1:] {
			if bytes.Compare(it.ck, minKey) < 0 {
				minKey = it.ck
			}
		}
		m.parts = m.parts[:0]
		for _, it := range iters {
			if bytes.Equal(it.ck, minKey) {
				m.parts = append(m.parts, it)
			}
		}
		if err := m.mergeKey(); err != nil {
			w.abort()
			return nil, err
		}
		// Advance the participants; drop exhausted iterators.
		for _, it := range m.parts {
			if err := it.advance(); err != nil {
				w.abort()
				return nil, err
			}
		}
		iters = slices.DeleteFunc(iters, func(it *mergeIter) bool { return !it.ok })
		if w.off-paced >= throttleBytes {
			paced = w.off
			s.yieldToFlush()
		}
	}
	t, err := w.finish(s.breakpoint("compact:pre-rename"))
	if err != nil {
		return nil, err
	}
	t.meta.Level, t.meta.Seq = 1, seq
	if watermark > t.meta.Watermark {
		t.meta.Watermark = watermark
	}
	return t, nil
}

// keyMerger applies the merge rules to one key at a time; its slices are
// scratch reused across keys.
type keyMerger struct {
	w       *tableWriter
	parts   []*mergeIter // the inputs positioned on the current key
	details []storage.WALRecord
}

// mergeKey writes one key's merged records: the winning summary, then the
// surviving detail.
func (m *keyMerger) mergeKey() error {
	// Winner: newest input table holding a summary for the key.
	var winner *mergeIter
	for _, p := range m.parts {
		if p.e.flags&entryHasSummary == 0 {
			continue
		}
		if winner == nil || p.t.meta.Seq > winner.t.meta.Seq {
			winner = p
		}
	}
	var horizon uint64
	if winner != nil {
		// The winning summary is copied through as framed bytes. For a key no
		// other input holds and no detail follows, that is the whole merge.
		horizon = winner.e.horizon
		frame, err := winner.fr.next()
		if err != nil {
			return err
		}
		if err := m.w.addRaw(winner.ck, len(winner.e.typ), horizon, frame); err != nil {
			return err
		}
	}
	// Surviving detail: above the winning horizon, not obsolete, one copy
	// per LSN. An LSN's copies can disagree across tables — only the table
	// whose flush saw the break settlement carries the flag, an older table
	// holds the pre-break live copy — so every copy is collected first and an LSN is
	// dropped when any of its copies is obsolete. Keying the decision on
	// iteration order instead would let the older live copy resurrect a
	// withdrawn promise whose covering WAL settlement has already been pruned.
	m.details = m.details[:0]
	for _, p := range m.parts {
		if p != winner && p.e.flags&entryHasSummary != 0 {
			// A superseded summary: a strict prefix of the winner's rollup.
			if _, err := p.fr.next(); err != nil {
				return err
			}
		}
		end := int64(p.e.dataOff + p.e.dataLen)
		for p.fr.off < end {
			rec, err := p.fr.record()
			if err != nil {
				return err
			}
			if rec.Kind == storage.KindAppend && rec.LSN > horizon {
				m.details = append(m.details, rec)
			}
		}
		if p.fr.off != end {
			return fmt.Errorf("lsm: table %s: entry for %q does not end on a frame boundary", p.t.meta.Name, p.ck)
		}
	}
	slices.SortStableFunc(m.details, func(a, b storage.WALRecord) int { return cmp.Compare(a.LSN, b.LSN) })
	for i := 0; i < len(m.details); {
		j, obsolete := i, false
		for ; j < len(m.details) && m.details[j].LSN == m.details[i].LSN; j++ {
			obsolete = obsolete || m.details[j].Obsolete
		}
		if !obsolete {
			if err := m.w.add(&m.details[i]); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// yieldToFlush pauses the merge while a flush is writing and applies the
// configured throttle between output blocks.
func (s *Store) yieldToFlush() {
	for s.flushActive.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	if s.opts.CompactThrottle > 0 {
		time.Sleep(s.opts.CompactThrottle)
	}
}

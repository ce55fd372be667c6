package lsm

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/storage"
)

// referenceMerge is the merge rules applied the slow, obvious way — every
// record of every input decoded, one key at a time, obsolescence and
// duplicates tracked in maps. The streaming merge must produce exactly this.
func referenceMerge(t *testing.T, inputs []*table) []storage.WALRecord {
	t.Helper()
	type held struct {
		seq  uint64
		recs []storage.WALRecord
	}
	byKey := map[string][]held{}
	for _, in := range inputs {
		perKey := map[string][]storage.WALRecord{}
		if err := in.scan(func(e indexEntry, rec storage.WALRecord) error {
			ck := compositeKey(e.key)
			perKey[ck] = append(perKey[ck], rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for ck, recs := range perKey {
			byKey[ck] = append(byKey[ck], held{in.meta.Seq, recs})
		}
	}
	keys := make([]string, 0, len(byKey))
	for ck := range byKey {
		keys = append(keys, ck)
	}
	sort.Strings(keys)
	var out []storage.WALRecord
	for _, ck := range keys {
		var winner *storage.WALRecord
		var winnerSeq uint64
		for _, h := range byKey[ck] {
			if h.recs[0].Kind == storage.KindSummary && (winner == nil || h.seq > winnerSeq) {
				winner, winnerSeq = &h.recs[0], h.seq
			}
		}
		var horizon uint64
		if winner != nil {
			horizon = winner.Horizon
			out = append(out, *winner)
		}
		obsolete := map[uint64]bool{}
		kept := map[uint64]storage.WALRecord{}
		for _, h := range byKey[ck] {
			for _, rec := range h.recs {
				if rec.Kind != storage.KindAppend || rec.LSN <= horizon {
					continue
				}
				if rec.Obsolete {
					obsolete[rec.LSN] = true
				} else if _, dup := kept[rec.LSN]; !dup {
					kept[rec.LSN] = rec
				}
			}
		}
		var lsns []uint64
		for lsn := range kept {
			if !obsolete[lsn] {
				lsns = append(lsns, lsn)
			}
		}
		sort.Slice(lsns, func(a, b int) bool { return lsns[a] < lsns[b] })
		for _, lsn := range lsns {
			out = append(out, kept[lsn])
		}
	}
	return out
}

// randomFlush builds one flush capture over a pool of keys: some keys absent,
// summaries at random horizons, detail-only keys, detail LSNs drawn from a
// small per-key universe so tables overlap on them, and the obsolete flag set
// per copy — so a withdrawal may be known to one table and not another.
func randomFlush(rng *rand.Rand, keys int) []storage.WALRecord {
	var entries []storage.WALRecord
	for i := 0; i < keys; i++ {
		if rng.Intn(3) == 0 {
			continue
		}
		k := testKey(i)
		var horizon uint64
		if rng.Intn(5) != 0 {
			horizon = uint64(1 + rng.Intn(20))
			entries = append(entries, summaryRec(k, horizon, float64(rng.Intn(1000))))
		}
		if horizon == 0 || rng.Intn(2) == 0 {
			for lsn := uint64(1); lsn <= 24; lsn++ {
				if rng.Intn(4) == 0 {
					entries = append(entries, detailRec(k, lsn, lsn%2 == 0, rng.Intn(4) == 0))
				}
			}
		}
		if len(entries) == 0 || entries[len(entries)-1].Key != k {
			entries = append(entries, detailRec(k, 25, false, false)) // a key needs a record
		}
	}
	return entries
}

// TestStreamingMergeMatchesReference: over seeded random inputs — an L1 run
// from an earlier pass plus fresh L0 tables — the compacted table scans
// record-for-record equal to the reference per-key merge of its inputs.
func TestStreamingMergeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := openTestStore(t, t.TempDir(), Options{CompactAfter: 100, CompactThrottle: -1})
		var lsn uint64 = 100
		for round := 0; round < 3; round++ { // rounds 2 and 3 merge into an existing L1
			for n := 1 + rng.Intn(4); n > 0; n-- {
				entries := randomFlush(rng, 48)
				if len(entries) == 0 {
					continue
				}
				lsn++
				if err := s.FlushTable(entries, lsn, 0); err != nil {
					t.Fatalf("seed %d: flush: %v", seed, err)
				}
			}
			s.mu.Lock()
			inputs := s.tables
			s.mu.Unlock()
			want := referenceMerge(t, inputs)
			if err := s.CompactNow(); err != nil {
				t.Fatalf("seed %d round %d: CompactNow: %v", seed, round, err)
			}
			s.mu.Lock()
			tables := s.tables
			s.mu.Unlock()
			if len(tables) != 1 || tables[0].meta.Level != 1 {
				t.Fatalf("seed %d round %d: %d tables after compaction", seed, round, len(tables))
			}
			var got []storage.WALRecord
			if err := tables[0].scan(func(_ indexEntry, rec storage.WALRecord) error {
				got = append(got, rec)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: merged table holds %d records, reference %d", seed, round, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d round %d: record %d differs:\n got %+v\nwant %+v", seed, round, i, got[i], want[i])
				}
			}
			// The table handed back by the writer must agree with one opened
			// cold from the file: same sparse index, same filter.
			cold, err := openTable(s.opts.Dir, tables[0].meta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold.sparse, tables[0].sparse) || !reflect.DeepEqual(cold.bloom, tables[0].bloom) ||
				cold.indexOff != tables[0].indexOff || cold.indexLen != tables[0].indexLen || cold.count != tables[0].count {
				t.Fatalf("seed %d round %d: writer-built table differs from the reopened one", seed, round)
			}
			cold.close()
		}
		s.Close()
	}
}

// TestCompactionRejectsCorruptCopyThroughFrame: a summary that is copied
// through undecoded is still CRC-checked. A flipped byte fails the pass,
// counts a failure, installs nothing and leaves the inputs serving reads.
func TestCompactionRejectsCorruptCopyThroughFrame(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{CompactAfter: 100, CompactThrottle: -1})
	defer s.Close()
	var big []storage.WALRecord
	for i := 0; i < 64; i++ {
		big = append(big, summaryRec(testKey(i), uint64(i+1), float64(i)))
	}
	if err := s.FlushTable(big, 64, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushTable([]storage.WALRecord{summaryRec(testKey(100), 70, 7)}, 70, 0); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	older := s.tables[1]
	s.mu.Unlock()
	// Key 40 lives only in the older table: its frame takes the copy-through.
	e, err := older.findEntry(compositeKey(testKey(40)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, older.meta.Name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := e.dataOff + storage.FrameHeader + 5
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := s.CompactNow(); err == nil {
		t.Fatal("CompactNow merged a table with a corrupt frame")
	}
	st := s.TieredStats()
	if st.CompactFailures != 1 || st.Compactions != 0 || st.Tables != 2 || st.L0Tables != 2 {
		t.Fatalf("stats after failed compaction: %+v", st)
	}
	if m, _ := filepath.Glob(filepath.Join(s.opts.Dir, "sst-*")); len(m) != 4 { // two tables, two sidecars
		t.Fatalf("failed compaction left files behind: %v", m)
	}
	for _, i := range []int{0, 39, 41, 63, 100} {
		if rec, err := s.LookupSummary(testKey(i)); err != nil || rec == nil {
			t.Fatalf("input table no longer serves key %d: %v, %v", i, rec, err)
		}
	}
	if _, err := s.LookupSummary(testKey(40)); err == nil {
		t.Fatal("lookup of the corrupt frame did not report it")
	}
}

package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// compactShape is a steady-state compaction's input: an l1Keys-key level-1
// run plus l0Tables level-0 tables of l0Keys keys each, all inside the run
// (every eighth carrying detail).
type compactShape struct{ l1Keys, l0Tables, l0Keys int }

func (c compactShape) inputKeys() int { return c.l1Keys + c.l0Tables*c.l0Keys }

// openCompactStore opens a store over dir whose compactor never runs on its
// own and never throttles.
func openCompactStore(tb testing.TB, dir string) *Store {
	tb.Helper()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: filepath.Join(dir, "wal"), Sync: storage.SyncOS})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(wal, Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100, CompactThrottle: -1})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// build writes the inputs once under dir and returns a function that lays
// hard links to them out in a fresh directory and opens a store there, ready
// for one CompactNow.
func (c compactShape) build(tb testing.TB) func() *Store {
	tb.Helper()
	key := func(i int) entity.Key { return entity.Key{Type: "Account", ID: fmt.Sprintf("acct-%07d", i)} }
	tmpl := tb.TempDir()
	s := openCompactStore(tb, tmpl)
	run := make([]storage.WALRecord, c.l1Keys)
	for i := range run {
		run[i] = summaryRec(key(i), uint64(i+1), float64(i))
	}
	if err := s.FlushTable(run, uint64(c.l1Keys), 0); err != nil {
		tb.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	lsn := uint64(c.l1Keys)
	for t := 0; t < c.l0Tables; t++ {
		var entries []storage.WALRecord
		for j := 0; j < c.l0Keys; j++ {
			k := key(j*(c.l1Keys/c.l0Keys) + t)
			lsn += 3
			entries = append(entries, summaryRec(k, lsn-2, float64(lsn)))
			if j%8 == 0 {
				entries = append(entries, detailRec(k, lsn-1, true, false), detailRec(k, lsn, false, false))
			}
		}
		if err := s.FlushTable(entries, lsn, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(tmpl, "sst"))
	if err != nil {
		tb.Fatal(err)
	}
	return func() *Store {
		dir := tb.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "sst"), 0o755); err != nil {
			tb.Fatal(err)
		}
		for _, f := range files {
			if err := os.Link(filepath.Join(tmpl, "sst", f.Name()), filepath.Join(dir, "sst", f.Name())); err != nil {
				tb.Fatal(err)
			}
		}
		return openCompactStore(tb, dir)
	}
}

// BenchmarkCompactL1 measures one steady-state compaction pass: a 65 536-key
// level-1 run plus four 512-key level-0 tables whose keys all fall inside it
// (every eighth carrying detail), throttle disabled. Nearly every key is held
// by the level-1 input alone — the shape the merge sees whenever the cold
// store is much larger than a flush. keys/s counts input index entries.
func BenchmarkCompactL1(b *testing.B) {
	shape := compactShape{l1Keys: 65536, l0Tables: 4, l0Keys: 512}
	open := shape.build(b) // the inputs are built once; each pass compacts links to them
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := open()
		b.StartTimer()
		if err := s.CompactNow(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.TieredStats(); st.Tables != 1 || st.TableKeys != uint64(shape.l1Keys) {
			b.Fatalf("after compaction: %+v", st)
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(shape.inputKeys())*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// compactAllocBudget is what one compaction pass may allocate per input key.
// A key copied through allocates nothing — no key string, no composite, no
// bloom key, and no decoded record, since every frame the merge keeps is
// copied as it is — so what is left is the sparse index's one key in
// sparseEvery and the pass's fixed cost.
const compactAllocBudget = 0.25

// TestCompactAllocationBudget is BenchmarkCompactL1's gate, at a quarter of
// its size: a regression that puts a per-key string or copy back on the
// merge fails here.
func TestCompactAllocationBudget(t *testing.T) {
	shape := compactShape{l1Keys: 16384, l0Tables: 4, l0Keys: 128}
	s := shape.build(t)()
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(shape.inputKeys())
	t.Logf("a compaction allocates %.3f times per input key (%d keys)", per, shape.inputKeys())
	if per > compactAllocBudget {
		t.Fatalf("a compaction allocates %.3f times per input key, budget %.2f", per, compactAllocBudget)
	}
}

// BenchmarkLookupSummary measures one cold read's table probe: a key's
// summary looked up through the bloom filter and the sparse index of a
// 16 384-key table, decode included. Keys rotate, so the probes land at every
// position of a sparse run.
func BenchmarkLookupSummary(b *testing.B) {
	const keys = 16384
	key := func(i int) entity.Key { return entity.Key{Type: "Account", ID: fmt.Sprintf("acct-%07d", i)} }
	dir := b.TempDir()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: filepath.Join(dir, "wal"), Sync: storage.SyncOS})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(wal, Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100, CompactThrottle: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	run := make([]storage.WALRecord, keys)
	probes := make([]entity.Key, keys)
	for i := range run {
		probes[i] = key(i)
		run[i] = summaryRec(probes[i], uint64(i+1), float64(i))
	}
	if err := s.FlushTable(run, keys, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := s.LookupSummary(probes[(i*7919)%keys])
		if err != nil || rec == nil {
			b.Fatalf("probe %d: %v, %v", i, rec, err)
		}
	}
}

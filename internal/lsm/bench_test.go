package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// BenchmarkCompactL1 measures one steady-state compaction pass: a 65 536-key
// level-1 run plus four 512-key level-0 tables whose keys all fall inside it
// (every eighth carrying detail), throttle disabled. Nearly every key is held
// by the level-1 input alone — the shape the merge sees whenever the cold
// store is much larger than a flush. keys/s counts input index entries.
func BenchmarkCompactL1(b *testing.B) {
	const (
		l1Keys   = 65536
		l0Tables = 4
		l0Keys   = 512
	)
	key := func(i int) entity.Key { return entity.Key{Type: "Account", ID: fmt.Sprintf("acct-%07d", i)} }
	open := func(dir string) *Store {
		wal, err := storage.OpenWAL(storage.WALOptions{Dir: filepath.Join(dir, "wal"), Sync: storage.SyncOS})
		if err != nil {
			b.Fatal(err)
		}
		s, err := Open(wal, Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100, CompactThrottle: -1})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}

	// The inputs are built once; each iteration compacts hard links to them.
	tmpl := b.TempDir()
	s := open(tmpl)
	run := make([]storage.WALRecord, l1Keys)
	for i := range run {
		run[i] = summaryRec(key(i), uint64(i+1), float64(i))
	}
	if err := s.FlushTable(run, l1Keys, 0); err != nil {
		b.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		b.Fatal(err)
	}
	lsn := uint64(l1Keys)
	for t := 0; t < l0Tables; t++ {
		var entries []storage.WALRecord
		for j := 0; j < l0Keys; j++ {
			k := key(j*(l1Keys/l0Keys) + t)
			lsn += 3
			entries = append(entries, summaryRec(k, lsn-2, float64(lsn)))
			if j%8 == 0 {
				entries = append(entries, detailRec(k, lsn-1, true, false), detailRec(k, lsn, false, false))
			}
		}
		if err := s.FlushTable(entries, lsn, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(tmpl, "sst"))
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer() // the inputs above are not part of a pass
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "sst"), 0o755); err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			if err := os.Link(filepath.Join(tmpl, "sst", f.Name()), filepath.Join(dir, "sst", f.Name())); err != nil {
				b.Fatal(err)
			}
		}
		s := open(dir)
		b.StartTimer()
		if err := s.CompactNow(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.TieredStats(); st.Tables != 1 || st.TableKeys != l1Keys {
			b.Fatalf("after compaction: %+v", st)
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(l1Keys+l0Tables*l0Keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
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

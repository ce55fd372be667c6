package lsdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/entity"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// TestFlushCompactionCrashMatrix is the kill-9 matrix for the tiered
// pipeline. Each case arms one breakpoint inside a flush or compaction — the
// operation aborts exactly where a crash at that site would, leaving the
// directory in the crashed shape — then the store reopens from disk and must
// prove:
//
//   - no acknowledged write is lost (every balance matches the pre-crash
//     bookkeeping, the LSN watermark is intact);
//   - orphaned artifacts are quarantined or removed, never replayed;
//   - recovery reads the newest manifest plus the WAL tail and the store
//     stays fully writable and flushable afterwards.
//
// The WAL runs SyncAlways so "acknowledged" means durable at append time —
// the clean Close before reopening adds nothing a crash would take away.
// Run under -race in CI.
func TestFlushCompactionCrashMatrix(t *testing.T) {
	cases := []struct {
		site        string
		compaction  bool // crash during CompactNow rather than Checkpoint
		wantOrphans bool // reopening must quarantine leftover *.sst files
	}{
		{site: "flush:pre-rename"},
		{site: "flush:pre-manifest", wantOrphans: true},
		{site: "compact:pre-rename", compaction: true},
		{site: "compact:pre-manifest", compaction: true, wantOrphans: true},
		{site: "compact:pre-delete", compaction: true, wantOrphans: true},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			dir := t.TempDir()
			var armed atomic.Bool
			boom := errors.New("simulated crash")
			hooks := &lsm.Hooks{Breakpoint: func(site string) error {
				if armed.Load() && site == tc.site {
					return boom
				}
				return nil
			}}
			wal := openTestWAL(t, dir, storage.SyncAlways)
			store, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100, Hooks: hooks})
			if err != nil {
				t.Fatal(err)
			}
			db := newTestDB(t, Options{Shards: 2, Backend: store})

			// Acked writes, with expected balances tracked on the side. A
			// withdrawn promise rides along: its MarkObsolete lands after the
			// first flush, so for compaction cases the mark is WAL-tail-only
			// while the promise is table detail.
			balances := map[string]float64{}
			write := func(id string, delta float64) {
				t.Helper()
				k := entity.Key{Type: "Account", ID: id}
				if _, err := db.Append(k, []entity.Op{entity.Delta("balance", delta)}, stamp(1), "n", ""); err != nil {
					t.Fatal(err)
				}
				balances[id] += delta
			}
			for i := 0; i < 20; i++ {
				write(fmt.Sprintf("a%d", i%5), 1)
			}
			promised := entity.Key{Type: "Account", ID: "a0"}
			if _, err := db.AppendTentative(promised, []entity.Op{entity.Delta("balance", 999)}, stamp(2), "n", "p1"); err != nil {
				t.Fatal(err)
			}

			if tc.compaction {
				// Two clean flushes build the level-0 backlog the doomed
				// compaction will merge.
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := db.MarkObsolete(promised, "p1"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					write(fmt.Sprintf("a%d", i%5), 2)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				armed.Store(true)
				err := store.CompactNow()
				if tc.site == "compact:pre-delete" {
					// The merge committed (manifest superseded the inputs); only
					// the input deletion was lost to the crash.
					if err != nil {
						t.Fatalf("CompactNow at %s: %v", tc.site, err)
					}
				} else if !errors.Is(err, boom) {
					t.Fatalf("CompactNow at %s: %v, want simulated crash", tc.site, err)
				}
			} else {
				if err := db.MarkObsolete(promised, "p1"); err != nil {
					t.Fatal(err)
				}
				armed.Store(true)
				if err := db.Checkpoint(); !errors.Is(err, boom) {
					t.Fatalf("Checkpoint at %s: %v, want simulated crash", tc.site, err)
				}
				if failures, reason, _ := checkpointFailure(db); failures == 0 || reason == "" {
					t.Fatalf("crashed flush left no breadcrumb: (%d, %q)", failures, reason)
				}
			}
			head := db.HeadLSN()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// "Reboot": reopen the stack with the breakpoint disarmed. Open
			// sweeps the crash leftovers before any replay.
			armed.Store(false)
			store2, err := lsm.Open(openTestWAL(t, dir, storage.SyncAlways),
				lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.site, err)
			}
			rec, err := Recover(Options{Node: "test-node", Shards: 2, Backend: store2},
				accountType(), orderType())
			if err != nil {
				t.Fatalf("Recover after %s: %v", tc.site, err)
			}
			if rec.HeadLSN() != head {
				t.Fatalf("LSN watermark %d after recovery, want %d", rec.HeadLSN(), head)
			}
			for id, want := range balances {
				st, _, err := rec.Current(entity.Key{Type: "Account", ID: id})
				if err != nil {
					t.Fatalf("Current(%s): %v", id, err)
				}
				if st.Fields["balance"] != want {
					t.Fatalf("%s: balance %v after crash at %s, want %v (acked write lost)",
						id, st.Fields["balance"], tc.site, want)
				}
			}

			orphans, _ := filepath.Glob(filepath.Join(dir, "sst", "*.orphaned"))
			if tc.wantOrphans && len(orphans) == 0 {
				t.Fatalf("crash at %s left no quarantined orphan", tc.site)
			}
			if !tc.wantOrphans && len(orphans) != 0 {
				t.Fatalf("unexpected orphans after %s: %v", tc.site, orphans)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "sst", "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files survived recovery: %v", tmps)
			}

			// The recovered store keeps working: new writes, a clean flush and
			// a clean compaction all succeed on top of the repaired layout.
			if _, err := rec.Append(entity.Key{Type: "Account", ID: "post"},
				[]entity.Op{entity.Delta("balance", 1)}, stamp(9), "test-node", ""); err != nil {
				t.Fatal(err)
			}
			if err := rec.Checkpoint(); err != nil {
				t.Fatalf("flush after recovery: %v", err)
			}
			if err := store2.CompactNow(); err != nil {
				t.Fatalf("compaction after recovery: %v", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

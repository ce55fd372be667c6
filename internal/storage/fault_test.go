package storage

// Unit tests for the fault-injecting backend wrapper: each injected failure
// mode must mirror the WAL's real degradation semantics — retryable ENOSPC,
// fail-stop after a torn write, permanent poisoning after a failed fsync,
// typed corruption from reads and appends — and Quarantine must cut the log
// back to exactly the last verifiably good record.

import (
	"errors"
	"testing"
)

func faultOverMemory() *FaultBackend { return NewFaultBackend(NewMemory()) }

func mustAppend(t *testing.T, b Backend, lsns ...uint64) {
	t.Helper()
	for _, lsn := range lsns {
		if err := b.AppendBatch([]WALRecord{appendRec(lsn, "a")}); err != nil {
			t.Fatalf("append LSN %d: %v", lsn, err)
		}
	}
}

func replayLSNs(t *testing.T, b Backend) []uint64 {
	t.Helper()
	var out []uint64
	if _, err := b.Replay(func(rec WALRecord) error {
		out = append(out, rec.LSN)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestFaultBackendEnospcWindowIsRetryable(t *testing.T) {
	fb := faultOverMemory()
	mustAppend(t, fb, 1)
	fb.FailAppends(2)
	for i := 0; i < 2; i++ {
		if err := fb.AppendBatch([]WALRecord{appendRec(2, "a")}); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("refusal %d = %v, want ErrNoSpace", i, err)
		}
	}
	// The window ran down: the same append now succeeds, nothing from the
	// refused attempts leaked into the log.
	mustAppend(t, fb, 2)
	if got := replayLSNs(t, fb); len(got) != 2 || got[1] != 2 {
		t.Fatalf("log after window = %v, want [1 2]", got)
	}
	st := fb.Stats()
	if st.appendsRefused != 2 || st.AppendsPassed != 2 {
		t.Fatalf("stats = %+v, want 2 refused / 2 passed", st)
	}
}

func TestFaultBackendHealCancelsPendingInjections(t *testing.T) {
	fb := faultOverMemory()
	fb.FailAppends(10)
	fb.TearNextAppend()
	fb.PoisonNextSync()
	fb.Heal()
	mustAppend(t, fb, 1)
	if st := fb.Stats(); st.appendsRefused != 0 || st.tornAppends != 0 || st.syncPoisonings != 0 {
		t.Fatalf("healed injections still fired: %+v", st)
	}
}

func TestFaultBackendTornAppendFailStopsUntilQuarantine(t *testing.T) {
	fb := faultOverMemory()
	mustAppend(t, fb, 1, 2)
	fb.TearNextAppend()
	// A 4-record batch: the tear persists the first half, then fail-stops.
	batch := []WALRecord{appendRec(3, "a"), appendRec(4, "a"), appendRec(5, "a"), appendRec(6, "a")}
	if err := fb.AppendBatch(batch); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("torn append = %v, want ErrFailStopped", err)
	}
	if got := replayLSNs(t, fb); len(got) != 4 || got[3] != 4 {
		t.Fatalf("log after tear = %v, want the persisted prefix [1 2 3 4]", got)
	}
	// Fail-stopped: every further append refuses, and Heal does not clear a
	// fail-stop that already happened.
	fb.Heal()
	if err := fb.AppendBatch([]WALRecord{appendRec(7, "a")}); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("append while fail-stopped = %v", err)
	}
	// Quarantine erases the partial suffix — everything after the last batch
	// that fully succeeded — and re-opens the log.
	lastGood, err := fb.Quarantine()
	if err != nil {
		t.Fatal(err)
	}
	if lastGood != 2 {
		t.Fatalf("quarantine cut at %d, want 2 (the torn batch is gone entirely)", lastGood)
	}
	if got := replayLSNs(t, fb); len(got) != 2 {
		t.Fatalf("log after quarantine = %v, want [1 2]", got)
	}
	mustAppend(t, fb, 3)
	if st := fb.Stats(); st.tornAppends != 1 || st.Quarantines != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultBackendPoisonIsPermanent(t *testing.T) {
	fb := faultOverMemory()
	mustAppend(t, fb, 1)
	fb.PoisonNextSync()
	// The poisoned append reaches the inner log but the ack is lost.
	if err := fb.AppendBatch([]WALRecord{appendRec(2, "a")}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned append = %v, want ErrPoisoned", err)
	}
	if !fb.poisoned {
		t.Fatal("not poisoned after an injected fsync failure")
	}
	for name, op := range map[string]func() error{
		"append":     func() error { return fb.AppendBatch([]WALRecord{appendRec(3, "a")}) },
		"sync":       fb.Sync,
		"quarantine": func() error { _, err := fb.Quarantine(); return err },
	} {
		if err := op(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s after poison = %v, want ErrPoisoned (nothing clears it)", name, err)
		}
	}
	fb.Heal() // must not resurrect a poisoned backend
	if err := fb.AppendBatch([]WALRecord{appendRec(3, "a")}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after Heal = %v, poisoning must survive Heal", err)
	}
}

func TestFaultBackendCorruptionTypedOnEveryPathAndQuarantineCut(t *testing.T) {
	fb := faultOverMemory()
	mustAppend(t, fb, 1, 2, 3, 4)
	fb.CorruptFrom(3)
	var ce *CorruptError
	if err := fb.AppendBatch([]WALRecord{appendRec(5, "a")}); !errors.As(err, &ce) {
		t.Fatalf("append into corruption = %v, want *CorruptError", err)
	}
	if _, err := fb.Replay(func(WALRecord) error { return nil }); !errors.As(err, &ce) {
		t.Fatalf("replay across corruption = %v, want *CorruptError", err)
	}
	if err := fb.StreamAfter(0, func(WALRecord) error { return nil }); !errors.As(err, &ce) {
		t.Fatalf("stream across corruption = %v, want *CorruptError", err)
	}
	// Records before the corruption point still replay: the typed error fires
	// exactly at LSN 3, not before.
	var seen []uint64
	_, err := fb.Replay(func(rec WALRecord) error {
		seen = append(seen, rec.LSN)
		return nil
	})
	if !errors.As(err, &ce) || len(seen) != 2 {
		t.Fatalf("replay reached %v before failing with %v, want [1 2]", seen, err)
	}
	lastGood, err := fb.Quarantine()
	if err != nil {
		t.Fatal(err)
	}
	if lastGood != 2 {
		t.Fatalf("quarantine cut at %d, want corruptAt-1 = 2", lastGood)
	}
	if got := replayLSNs(t, fb); len(got) != 2 {
		t.Fatalf("log after quarantine = %v, want [1 2]", got)
	}
	// The refill path (the caller's job) resumes from the cut.
	mustAppend(t, fb, 3, 4)
	if got := replayLSNs(t, fb); len(got) != 4 {
		t.Fatalf("refilled log = %v", got)
	}
	if st := fb.Stats(); st.corruptionHits < 4 || st.Quarantines != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// settleGoroutines waits (at most 5 s) for the goroutine count to fall to
// base and returns the last count seen.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestOpenFailureReleasesOpenedUnits: when one unit fails to recover, Open
// closes the units that did open — their directory locks, WAL files and
// compactors — so the same process can open the directory again once the
// fault is repaired.
func TestOpenFailureReleasesOpenedUnits(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Node: "n", Units: 4, DataDir: dir}
	base := runtime.NumGoroutine()
	k, err := Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := k.Update(accountKey(fmt.Sprintf("a%d", i)), entity.Delta("balance", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k.Close()

	manifest := filepath.Join(dir, "unit-2", "CHECKPOINT")
	good, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte("{not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Bootstrap(opts, workload.Types()...); err == nil || !strings.Contains(err.Error(), "n-u2") {
		t.Fatalf("open over a corrupt unit-2 manifest: %v, want an error naming n-u2", err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("after the failed open: %d goroutines, %d before it", n, base)
	}

	if err := os.WriteFile(manifest, good, 0o644); err != nil {
		t.Fatal(err)
	}
	k, err = Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatalf("open after the repair: %v", err)
	}
	st, err := k.Read(accountKey("a63"))
	if err != nil || st.Fields["balance"] != 63.0 {
		t.Errorf("a63 after the repair: %v, %v", st, err)
	}
	k.Close()
	if n := settleGoroutines(base); n > base {
		t.Errorf("after close: %d goroutines, %d at the baseline", n, base)
	}
}

// TestCloseStopsShipperOfUnstartedKernel: Close stops the replication lanes
// of a kernel that was never started, so no ship outlives the node.
func TestCloseStopsShipperOfUnstartedKernel(t *testing.T) {
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	newStandbyFor(t, net, "s1", 1)
	base := runtime.NumGoroutine()
	k, err := Bootstrap(Options{Node: "p", Units: 1, Replication: &ReplicationOptions{
		Standbys: []clock.NodeID{"s1"},
		Net:      net,
	}}, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Update(accountKey("a"), entity.Delta("balance", 1)); err != nil {
		t.Fatal(err)
	}
	k.Close()
	if n := settleGoroutines(base); n > base {
		t.Errorf("after close: %d goroutines, %d before the kernel opened", n, base)
	}
}

// syncCounter counts the Syncs that reach a unit's backend.
type syncCounter struct {
	storage.Backend
	syncs atomic.Int32
}

func (c *syncCounter) Sync() error {
	c.syncs.Add(1)
	return c.Backend.Sync()
}

// TestCheckpointAttemptsEveryUnit: a unit whose backend fails its flush does
// not stop the others — every unit is flushed, and the error names the
// failing unit alone.
func TestCheckpointAttemptsEveryUnit(t *testing.T) {
	const units = 4
	counters := make([]*syncCounter, units)
	faults := make([]*storage.FaultBackend, units)
	backends := make([]storage.Backend, units)
	for i := range backends {
		faults[i] = storage.NewFaultBackend(storage.NewMemory())
		counters[i] = &syncCounter{Backend: faults[i]}
		backends[i] = counters[i]
	}
	k, err := Bootstrap(Options{Node: "n", Units: units, UnitBackends: backends}, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	// Poison unit 1: its next append reaches the log but its fsync fails,
	// and every later Sync fails the same way.
	faults[1].PoisonNextSync()
	for i := 0; ; i++ {
		key := accountKey(fmt.Sprintf("a%d", i))
		if u, _ := k.unitFor(key); u == k.byIndex[1] {
			if _, err := k.Update(key, entity.Delta("balance", 1)); !errors.Is(err, storage.ErrPoisoned) {
				t.Fatalf("append to the poisoned unit: %v", err)
			}
			break
		}
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{{"checkpoint", k.Checkpoint}, {"flush", k.Flush}} {
		before := make([]int32, units)
		for i, c := range counters {
			before[i] = c.syncs.Load()
		}
		err := op.run()
		if !errors.Is(err, storage.ErrPoisoned) {
			t.Fatalf("%s: %v, want ErrPoisoned", op.name, err)
		}
		for i, c := range counters {
			if got := c.syncs.Load() - before[i]; got != 1 {
				t.Errorf("%s: unit %d synced %d times, want 1", op.name, i, got)
			}
			if named := strings.Contains(err.Error(), fmt.Sprintf("n-u%d", i)); named != (i == 1) {
				t.Errorf("%s: error %q names unit %d: %v", op.name, err, i, named)
			}
		}
	}
}

// Shape of the tiered kernel the load and open benchmarks share: 240 000
// first writes by 2 writers through 4 units, as bench/'s cold-read preload
// runs them.
const (
	loadUnits    = 4
	loadEntities = 240000
	loadWriters  = 2
)

// loadTieredKernel fills a fresh tiered kernel in dir with loadEntities
// Accounts (one first write each, loadWriters goroutines), checkpoints it,
// drains the compaction backlog and closes it.
func loadTieredKernel(tb testing.TB, opts Options) {
	k, err := Bootstrap(opts, workload.Types()...)
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, loadWriters)
	for w := range loadWriters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := w; a < loadEntities && errs[w] == nil; a += loadWriters {
				_, errs[w] = k.Update(accountKey(fmt.Sprintf("acct-%07d", a)), entity.Delta("balance", float64(a)))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tb.Fatal(err)
	}
	if err := k.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if ts, _, _ := k.TieredStats(); ts.CompactionBacklog == 0 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("compaction backlog not drained after 30 s")
		}
	}
	k.Close()
}

func loadOptions(dir string) Options {
	return Options{Node: "bench", Units: loadUnits, DataDir: dir, Fsync: storage.SyncOS}
}

// BenchmarkKernelLoad prices the set-up of a tiered kernel: loadTieredKernel
// into a fresh directory per iteration — every commit, WAL append, flush pass
// and compaction it starts — reported per update.
func BenchmarkKernelLoad(b *testing.B) {
	b.Run(fmt.Sprintf("units=%d/entities=%d", loadUnits, loadEntities), func(b *testing.B) {
		var before, after runtime.MemStats
		var elapsed time.Duration
		var mallocs, bytes uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp(b.TempDir(), "load")
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			b.StartTimer()
			loadTieredKernel(b, loadOptions(dir))
			b.StopTimer()
			elapsed += time.Since(start)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			os.RemoveAll(dir)
			b.StartTimer()
		}
		updates := float64(b.N * loadEntities)
		b.ReportMetric(float64(elapsed.Nanoseconds())/updates, "ns/update")
		b.ReportMetric(float64(bytes)/updates, "B/update")
		b.ReportMetric(float64(mallocs)/updates, "allocs/update")
	})
}

// Budget of one first write through a tiered kernel, its share of the flush
// passes included (TestTieredCommitAllocationBudget): 7.17 allocations and
// 1 620–1 710 bytes measured, plus slack for what varies from run to run —
// how the flush passes split the keys, where maps and slabs grow.
const (
	tieredWriteAllocs = 7.5
	tieredWriteBytes  = 1850
)

// TestTieredCommitAllocationBudget fails when a first write through a
// 4-unit tiered kernel allocates more than its budget, counted over 40 000
// of them and the flush passes they trigger, the final checkpoint's
// included: the commit, its one encoding, the WAL append, the resident log
// and the tables all show in it.
func TestTieredCommitAllocationBudget(t *testing.T) {
	const entities = 40000
	k, err := Bootstrap(loadOptions(t.TempDir()), workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	keys := make([]entity.Key, entities)
	for i := range keys {
		keys[i] = accountKey(fmt.Sprintf("acct-%07d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, key := range keys {
		if _, err := k.Update(key, entity.Delta("balance", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / entities
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / entities
	t.Logf("a tiered first write allocates %.2f times, %.0f bytes (budget %.2f, %d)", allocs, bytes, tieredWriteAllocs, tieredWriteBytes)
	if allocs > tieredWriteAllocs || bytes > tieredWriteBytes {
		t.Fatalf("a tiered first write allocates %.2f times, %.0f bytes: over its budget of %.2f, %d", allocs, bytes, tieredWriteAllocs, tieredWriteBytes)
	}
}

// BenchmarkKernelOpen prices a restart of a 4-unit tiered kernel holding
// 240 000 Accounts, all settled into compacted tables: recovery of every
// unit (manifest, tables, bloom sidecars, cold pointers for every key, the
// WAL tail), type registration, then Close. The store is built once, by
// loadTieredKernel.
func BenchmarkKernelOpen(b *testing.B) {
	opts := loadOptions(b.TempDir())
	loadTieredKernel(b, opts)

	b.Run(fmt.Sprintf("units=%d/entities=%d", loadUnits, loadEntities), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, err := Bootstrap(opts, workload.Types()...)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.StopTimer()
				if st, err := k.Read(accountKey("acct-0123456")); err != nil || st.Fields["balance"] != 123456.0 {
					b.Fatalf("cold read after open: %v, %v", st, err)
				}
				b.StartTimer()
			}
			k.Close()
		}
	})
}

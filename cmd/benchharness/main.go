// Command benchharness runs scaled-down versions of the experiments
// (E1..E22 in DESIGN.md / EXPERIMENTS.md) and prints one plain-text table per
// experiment, the way the paper's evaluation section would have reported
// them. The authoritative, parameter-swept versions are the testing.B
// benchmarks in bench_test.go; this command exists to regenerate the tables
// quickly without the Go test machinery.
//
// With -json PATH the same tables are additionally written as a JSON array
// of {experiment, title, columns, rows} objects — the BENCH_*.json
// trajectory files the Makefile bench targets archive so successive PRs can
// diff their numbers.
//
// Usage:
//
//	benchharness [-ops N] [-only E5] [-json BENCH_E5.json]
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/locks"
	"repro/internal/lsdb"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

var (
	ops     = flag.Int("ops", 2000, "operations per experiment configuration")
	only    = flag.String("only", "", "run only the named experiment (e.g. E5)")
	jsonOut = flag.String("json", "", "also write the tables as JSON to this file")
)

func main() {
	flag.Parse()
	experiments := []struct {
		name string
		run  func(int) *metrics.Table
	}{
		{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5}, {"E6", e6},
		{"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10}, {"E11", e11}, {"E12", e12},
		{"E13", e13}, {"E14", e14}, {"E15", e15}, {"E16", e16}, {"E17", e17},
		{"E18", e18}, {"E19", e19}, {"E22", e22},
	}
	var collected []metrics.TableJSON
	for _, ex := range experiments {
		if *only != "" && !strings.EqualFold(*only, ex.name) {
			continue
		}
		tbl := ex.run(*ops)
		fmt.Println(tbl.String())
		if *jsonOut != "" {
			collected = append(collected, metrics.TableAsJSON(ex.name, tbl))
		}
	}
	if *jsonOut != "" {
		if err := metrics.WriteTablesJSON(*jsonOut, collected); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d table(s) to %s\n", len(collected), *jsonOut)
	}
}

func mustKernel(opts repro.Options) *repro.Kernel {
	k, err := repro.Bootstrap(opts, repro.StandardTypes()...)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	return k
}

func opsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// E1: hot aggregate, synchronous vs deferred maintenance.
func e1(n int) *metrics.Table {
	tbl := metrics.NewTable("E1 — deferred vs synchronous hot aggregate (principle 2.3)",
		"mode", "writers", "ops/sec", "aggregate staleness after load")
	for _, deferred := range []bool{false, true} {
		mode := "sync"
		if deferred {
			mode = "deferred"
		}
		d := deferred
		k := mustKernel(repro.Options{Node: "e1", DeferredAggregates: &d})
		k.DefineSumAggregate("revenue", "Order", "total", "")
		const writers = 8
		var wg sync.WaitGroup
		var seq atomic.Int64
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for int(seq.Add(1)) <= n {
					i := seq.Load()
					k.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, repro.Set("total", 10.0))
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		tbl.AddRow(mode, writers, opsPerSec(n, elapsed), k.AggregateStaleness())
		k.Close()
	}
	return tbl
}

// E2: focused transactions + queued propagation vs two-phase commit.
func e2(n int) *metrics.Table {
	tbl := metrics.NewTable("E2 — SOUPS vs 2PC across 4 serialization units (principles 2.5/2.6)",
		"mode", "cross-unit ratio", "ops/sec", "p99 latency")
	for _, cross := range []float64{0, 0.5, 1.0} {
		for _, mode := range []repro.Consistency{repro.EventualSOUPS, repro.StrongSingleCopy} {
			k := mustKernel(repro.Options{Node: "e2", Units: 4, Consistency: mode})
			gen := workload.NewTransfers(42, 500, cross)
			hist := metrics.NewHistogram()
			start := time.Now()
			for i := 0; i < n; i++ {
				tr := gen.Next()
				t0 := time.Now()
				if err := k.TransactMulti([]repro.MultiWrite{
					{Key: tr.From, Ops: []repro.Op{repro.Delta("balance", -tr.Amount)}},
					{Key: tr.To, Ops: []repro.Op{repro.Delta("balance", tr.Amount)}},
				}); err != nil {
					log.Fatalf("E2: %v", err)
				}
				hist.Record(time.Since(t0))
			}
			elapsed := time.Since(start)
			if mode == repro.EventualSOUPS {
				k.Drain()
			}
			name := "soups"
			if mode == repro.StrongSingleCopy {
				name = "2pc"
			}
			tbl.AddRow(name, fmt.Sprintf("%.0f%%", cross*100), opsPerSec(n, elapsed), hist.Quantile(0.99))
			k.Close()
		}
	}
	return tbl
}

// E3: concurrency-control disciplines under Zipfian contention.
func e3(n int) *metrics.Table {
	tbl := metrics.NewTable("E3 — solipsistic vs optimistic vs pessimistic CC (principle 2.10)",
		"mode", "ops/sec", "aborts", "lock timeouts")
	for _, mode := range []txn.Mode{txn.Solipsistic, txn.Optimistic, txn.Pessimistic} {
		db := lsdb.Open(lsdb.Options{Node: "e3", SnapshotEvery: 64, Validation: entity.Managed})
		db.RegisterType(workload.AccountType())
		mgr := txn.NewManager(db, nil, nil, txn.Options{Node: "e3", LockTimeout: 20 * time.Millisecond})
		zipf := workload.NewZipf(7, 32, 1.3)
		var wg sync.WaitGroup
		var aborted atomic.Int64
		per := n / 8
		start := time.Now()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					key := repro.Key{Type: "Account", ID: fmt.Sprintf("a%d", zipf.Next())}
					if _, err := mgr.Run(mode, nil, 0, func(t *txn.Txn) error {
						if _, err := t.Read(key); err != nil {
							return err
						}
						return t.Update(key, repro.Delta("balance", 1))
					}); err != nil {
						aborted.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		tbl.AddRow(mode.String(), opsPerSec(8*per, elapsed), aborted.Load(), mgr.Stats().LockTimeouts)
	}
	return tbl
}

// E4: conflict resolution strategies on concurrent replica updates.
func e4(n int) *metrics.Table {
	tbl := metrics.NewTable("E4 — conflict resolution: state LWW vs operation replay (principles 2.7/2.8)",
		"strategy", "merges", "lost operations", "final value correct")
	typ := workload.AccountType()
	key := repro.Key{Type: "Account", ID: "A"}
	for _, strategy := range []entity.MergeStrategy{entity.LastWriterWins, entity.OperationReplay} {
		base := entity.NewState(key)
		lost, correct := 0, 0
		for i := 0; i < n; i++ {
			mk := func(node string, amt float64, w int64) *entity.Version {
				ops := []repro.Op{repro.Delta("balance", amt)}
				st, _, _ := entity.Apply(typ, base, ops, entity.Managed)
				return &entity.Version{Key: key, Ops: ops, State: st, Stamp: clock.Timestamp{WallNanos: w, Node: clock.NodeID(node)}}
			}
			a := mk("r1", 10, int64(2*i+1))
			b := mk("r2", 7, int64(2*i+2))
			res, err := entity.Merge(typ, base, a, b, strategy)
			if err != nil {
				log.Fatalf("E4: %v", err)
			}
			lost += res.LostOps
			if res.State.Float("balance") == 17 {
				correct++
			}
		}
		tbl.AddRow(strategy.String(), n, lost, fmt.Sprintf("%d/%d", correct, n))
	}
	return tbl
}

// E5: availability during a network partition.
func e5(n int) *metrics.Table {
	tbl := metrics.NewTable("E5 — availability under partition (principle 2.11 / CAP)",
		"replication", "side", "writes attempted", "success ratio")
	for _, mode := range []replica.Mode{replica.Quorum, replica.Eventual} {
		cluster, err := replica.NewCluster(3, mode, netsim.Config{UnreachableDelay: 100 * time.Microsecond}, workload.AccountType())
		if err != nil {
			log.Fatalf("E5: %v", err)
		}
		cluster.Network().Partition([]clock.NodeID{"r0"}, []clock.NodeID{"r1", "r2"})
		for side, idx := range map[string]int{"minority (r0)": 0, "majority (r1)": 1} {
			rep, _ := cluster.Replica(idx)
			ok := 0
			attempts := n / 10
			for i := 0; i < attempts; i++ {
				if _, err := rep.Write(repro.Key{Type: "Account", ID: "A"}, []repro.Op{repro.Delta("balance", 1)}, ""); err == nil {
					ok++
				}
			}
			tbl.AddRow(mode.String(), side, attempts, float64(ok)/float64(attempts))
		}
		cluster.Stop()
	}
	return tbl
}

// E6: apology rate vs strong rejection for the overbooked bookstore.
func e6(int) *metrics.Table {
	tbl := metrics.NewTable("E6 — tentative orders + apologies vs synchronous stock checks (principle 2.9)",
		"mode", "stock", "demand", "confirmed at entry", "apologies", "rejected at entry", "mean entry latency")
	const stock, demand = 5, 9
	// Eventual / apology-oriented.
	{
		k := mustKernel(repro.Options{Node: "e6"})
		key := repro.Key{Type: "Book", ID: "bestseller"}
		k.Update(key, repro.Set("stock", stock))
		hist := metrics.NewHistogram()
		for _, o := range workload.NewBookstore(stock, demand).Orders() {
			t0 := time.Now()
			if _, err := k.UpdateTentative(key, o.Customer, "order-confirmation", 1, repro.Delta("stock", -1)); err != nil {
				log.Fatalf("E6: %v", err)
			}
			hist.Record(time.Since(t0))
		}
		_, apologies, _ := k.ResolveOverbooking(key, stock, "out of stock", "refund")
		tbl.AddRow("eventual+apology", stock, demand, demand, len(apologies), 0, hist.Mean())
		k.Close()
	}
	// Strong / reject at entry.
	{
		k := mustKernel(repro.Options{Node: "e6s", Consistency: repro.StrongSingleCopy})
		key := repro.Key{Type: "Book", ID: "bestseller"}
		k.Update(key, repro.Set("stock", stock))
		hist := metrics.NewHistogram()
		rejected := 0
		for range workload.NewBookstore(stock, demand).Orders() {
			t0 := time.Now()
			_, err := k.Transact(key, func(t *txn.Txn) error {
				st, err := t.Read(key)
				if err != nil {
					return err
				}
				if st.Int("stock") < 1 {
					return errors.New("out of stock")
				}
				return t.Update(key, repro.Delta("stock", -1))
			})
			hist.Record(time.Since(t0))
			if err != nil {
				rejected++
			}
		}
		tbl.AddRow("strong reject", stock, demand, demand-rejected, 0, rejected, hist.Mean())
		k.Close()
	}
	return tbl
}

// E7: convergence time vs replica count under message loss.
func e7(int) *metrics.Table {
	tbl := metrics.NewTable("E7 — eventual convergence via anti-entropy (loss rate 30%)",
		"replicas", "writes", "sync rounds to converge", "converged value correct")
	for _, replicas := range []int{3, 5, 7} {
		cluster, err := replica.NewCluster(replicas, replica.Eventual, netsim.Config{LossRate: 0.3, Seed: 11}, workload.AccountType())
		if err != nil {
			log.Fatalf("E7: %v", err)
		}
		key := repro.Key{Type: "Account", ID: "A"}
		for i := 0; i < replicas; i++ {
			rep, _ := cluster.Replica(i)
			rep.Write(key, []repro.Op{repro.Delta("balance", 1)}, "")
		}
		rounds := 0
		for {
			rounds++
			cluster.SyncRound()
			done := true
			for i := 0; i < replicas; i++ {
				rep, _ := cluster.Replica(i)
				st, err := rep.ReadResolved(key)
				if err != nil || st.Float("balance") != float64(replicas) {
					done = false
					break
				}
			}
			if done || rounds > 1000 {
				break
			}
		}
		tbl.AddRow(replicas, replicas, rounds, rounds <= 1000)
		cluster.Stop()
	}
	return tbl
}

// E8: step collapsing.
func e8(n int) *metrics.Table {
	tbl := metrics.NewTable("E8 — vertical step collapsing (section 3.1)",
		"mode", "pipelines", "steps executed", "collapsed inline", "pipelines/sec")
	for _, collapse := range []bool{false, true} {
		k := mustKernel(repro.Options{Node: "e8", CollapseVertical: collapse})
		def := repro.NewProcess("pipeline")
		def.Step("a", func(ctx *repro.StepContext) error {
			if err := ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "A")); err != nil {
				return err
			}
			ctx.Emit(repro.Event{Name: "b", Entity: repro.Key{Type: "Inventory", ID: "widget"}})
			return nil
		})
		def.Step("b", func(ctx *repro.StepContext) error {
			return ctx.Txn.Update(ctx.Event.Entity, repro.Delta("onhand", -1))
		})
		k.DefineProcess(def)
		pipelines := n / 4
		start := time.Now()
		for i := 0; i < pipelines; i++ {
			k.Submit(repro.Event{Name: "a", Entity: repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, TxnID: fmt.Sprintf("p%d", i)})
			k.Drain()
		}
		elapsed := time.Since(start)
		name := "queued"
		if collapse {
			name = "vertical-collapse"
		}
		stats := k.ProcessStats()
		tbl.AddRow(name, pipelines, stats.StepsExecuted, stats.Collapsed, opsPerSec(pipelines, elapsed))
		k.Close()
	}
	return tbl
}

// E9: rollup read cost vs log length, with and without snapshots. The
// materialised state cache is disabled so the rollup itself is measured;
// E13 measures the cache against this baseline.
func e9(n int) *metrics.Table {
	tbl := metrics.NewTable("E9 — LSDB rollup read cost (section 3.1)",
		"log records", "snapshots", "reads", "mean read latency")
	for _, logLen := range []int{100, 10000} {
		for _, snap := range []bool{false, true} {
			every := 0
			if snap {
				every = 256
			}
			db := lsdb.Open(lsdb.Options{Node: "e9", SnapshotEvery: every, Validation: entity.Managed, DisableStateCache: true})
			db.RegisterType(workload.AccountType())
			key := repro.Key{Type: "Account", ID: "A"}
			for i := 0; i < logLen; i++ {
				db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e9"}, "e9", "")
			}
			hist := metrics.NewHistogram()
			reads := n / 4
			for i := 0; i < reads; i++ {
				t0 := time.Now()
				db.Current(key)
				hist.Record(time.Since(t0))
			}
			tbl.AddRow(logLen, snap, reads, hist.Mean())
		}
	}
	return tbl
}

// E13: materialised current-state reads vs log rollup at long histories.
func e13(n int) *metrics.Table {
	tbl := metrics.NewTable("E13 — materialised state cache vs rollup reads (section 3.1)",
		"history length", "read path", "reads", "mean read latency")
	for _, history := range []int{100, 1000} {
		for _, cachedReads := range []bool{false, true} {
			db := lsdb.Open(lsdb.Options{Node: "e13", Validation: entity.Managed, DisableStateCache: !cachedReads})
			db.RegisterType(workload.AccountType())
			key := repro.Key{Type: "Account", ID: "A"}
			for i := 0; i < history; i++ {
				db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e13"}, "e13", "")
			}
			hist := metrics.NewHistogram()
			reads := n / 4
			for i := 0; i < reads; i++ {
				t0 := time.Now()
				db.Current(key)
				hist.Record(time.Since(t0))
			}
			name := "rollup"
			if cachedReads {
				name = "cached"
			}
			tbl.AddRow(history, name, reads, hist.Mean())
		}
	}
	return tbl
}

// E14: mixed append/scan workload on one store, one shard vs eight.
func e14(n int) *metrics.Table {
	tbl := metrics.NewTable("E14 — lock-striped shards under a mixed append/scan load (section 3.1)",
		"shards", "workers", "appends", "scans", "ops/sec")
	const entities, workers = 256, 8
	for _, shards := range []int{1, 8} {
		db := lsdb.Open(lsdb.Options{Node: "e14", Validation: entity.Managed, Shards: shards})
		db.RegisterType(workload.AccountType())
		keys := make([]repro.Key, entities)
		for i := range keys {
			keys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", i)}
			db.Append(keys[i], []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e14"}, "e14", "")
		}
		var wg sync.WaitGroup
		var appends, scans atomic.Int64
		per := n / workers
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if i%16 == 0 {
						db.Scan("Account", func(*entity.State) bool { return true })
						scans.Add(1)
						continue
					}
					key := keys[(w*per+i)%entities]
					db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(entities + w*per + i), Node: "e14"}, "e14", "")
					appends.Add(1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		tbl.AddRow(shards, workers, appends.Load(), scans.Load(), opsPerSec(workers*per, elapsed))
	}
	return tbl
}

// seedWideOrder builds one Order with width line items.
func seedWideOrder(db *lsdb.DB, key repro.Key, width int) {
	db.Append(key, []repro.Op{repro.Set("status", "OPEN")}, clock.Timestamp{WallNanos: 1, Node: "seed"}, "seed", "")
	for i := 0; i < width; i++ {
		db.Append(key, []repro.Op{repro.InsertChild("lineitems", fmt.Sprintf("L%d", i), repro.Fields{"product": "widget", "qty": 1, "price": 9.5})},
			clock.Timestamp{WallNanos: int64(i + 2), Node: "seed"}, "seed", "")
	}
}

// E15: copy-on-write states vs the deep-clone baseline on wide entities.
func e15(n int) *metrics.Table {
	tbl := metrics.NewTable("E15 — copy-on-write states vs deep clones on wide entities (section 3.1)",
		"children", "state model", "mean read latency", "mean write latency")
	for _, width := range []int{10, 100, 1000} {
		for _, deep := range []bool{true, false} {
			db := lsdb.Open(lsdb.Options{Node: "e15", Validation: entity.Managed, DeepCloneStates: deep})
			db.RegisterType(workload.OrderType())
			key := repro.Key{Type: "Order", ID: "wide"}
			seedWideOrder(db, key, width)
			reads := metrics.NewHistogram()
			ops := n / 4
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				db.Current(key)
				reads.Record(time.Since(t0))
			}
			writes := metrics.NewHistogram()
			for i := 0; i < ops; i++ {
				op := []repro.Op{entity.DeltaChildField("lineitems", fmt.Sprintf("L%d", i%width), "qty", 1)}
				t0 := time.Now()
				db.Append(key, op, clock.Timestamp{WallNanos: int64(width + i + 2), Node: "e15"}, "e15", "")
				writes.Record(time.Since(t0))
			}
			name := "copy-on-write"
			if deep {
				name = "deep-clone"
			}
			tbl.AddRow(width, name, reads.Mean(), writes.Mean())
		}
	}
	return tbl
}

// E16: scan throughput over wide entities, COW vs deep-clone reads.
func e16(n int) *metrics.Table {
	tbl := metrics.NewTable("E16 — scans over wide entities: copy-on-write vs deep clones (section 3.1)",
		"entities", "children each", "state model", "scans", "mean scan latency")
	const entities, width = 32, 256
	for _, deep := range []bool{true, false} {
		db := lsdb.Open(lsdb.Options{Node: "e16", Validation: entity.Managed, DeepCloneStates: deep})
		db.RegisterType(workload.OrderType())
		for e := 0; e < entities; e++ {
			seedWideOrder(db, repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", e)}, width)
		}
		hist := metrics.NewHistogram()
		scans := n / 100
		if scans == 0 {
			scans = 1
		}
		for i := 0; i < scans; i++ {
			t0 := time.Now()
			db.Scan("Order", func(st *entity.State) bool {
				for _, row := range st.LiveChildren("lineitems") {
					_ = row.Fields["qty"]
				}
				return true
			})
			hist.Record(time.Since(t0))
		}
		name := "copy-on-write"
		if deep {
			name = "deep-clone"
		}
		tbl.AddRow(entities, width, name, scans, hist.Mean())
	}
	return tbl
}

// E17: group-commit append batching — per-append locking vs batched commits,
// in-memory and with a real per-commit-cycle fsync (the cost group commit
// amortises).
func e17(n int) *metrics.Table {
	tbl := metrics.NewTable("E17 — group-commit append batching under concurrent writers (section 3.1)",
		"sync", "writers", "commit mode", "appends", "ops/sec")
	const hotKeys = 16
	for _, syncMode := range []string{"mem", "fsync"} {
		for _, writers := range []int{1, 4, 8} {
			for _, batched := range []bool{false, true} {
				// Raise GOMAXPROCS so "writers" means truly concurrent
				// writers even on a small box; restored after this row so
				// later low-writer rows measure at their own setting.
				prevProcs := runtime.GOMAXPROCS(0)
				if prevProcs < writers {
					runtime.GOMAXPROCS(writers)
				}
				opts := lsdb.Options{Node: "e17", Validation: entity.Managed, Shards: 1, GroupCommit: batched}
				var wal *os.File
				if syncMode == "fsync" {
					var err error
					wal, err = os.CreateTemp("", "e17-wal")
					if err != nil {
						log.Fatalf("E17: %v", err)
					}
					opts.CommitHook = func(recs []lsdb.Record) {
						for _, rec := range recs {
							fmt.Fprintf(wal, "%d %s %d\n", rec.LSN, rec.Key.ID, len(rec.Ops))
						}
						wal.Sync()
					}
				}
				db := lsdb.Open(opts)
				db.RegisterType(workload.AccountType())
				keys := make([]repro.Key, hotKeys)
				for i := range keys {
					keys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", i)}
				}
				total := int64(n)
				if syncMode == "fsync" {
					total = int64(n / 4)
				}
				var seq atomic.Int64
				var wg sync.WaitGroup
				start := time.Now()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := seq.Add(1)
							if i > total {
								return
							}
							db.Append(keys[int(i)%hotKeys], []repro.Op{repro.Delta("balance", 1)},
								clock.Timestamp{WallNanos: i, Node: "e17"}, "e17", "")
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				mode := "per-append"
				if batched {
					mode = "batched"
				}
				tbl.AddRow(syncMode, writers, mode, total, opsPerSec(int(total), elapsed))
				runtime.GOMAXPROCS(prevProcs)
				if wal != nil {
					wal.Close()
					os.Remove(wal.Name())
				}
			}
		}
	}
	return tbl
}

// E18: durable storage — JSON-stream load vs checkpointed WAL recovery, and
// the append overhead the write-ahead log adds (mem vs WAL vs WAL+fsync).
func e18(n int) *metrics.Table {
	tbl := metrics.NewTable("E18 — storage engine: recovery time and append overhead (section 3.1)",
		"phase", "mode", "records", "elapsed", "ops/sec")
	types := func(db *lsdb.DB) {
		db.RegisterType(workload.AccountType())
		db.RegisterType(workload.OrderType())
	}
	seed := func(db *lsdb.DB, records int) {
		for i := 0; i < records; i++ {
			if i%8 == 0 {
				db.Append(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i%32)},
					[]repro.Op{repro.InsertChild("lineitems", fmt.Sprintf("L%d", i), repro.Fields{"product": "widget", "qty": int64(i % 7)})},
					clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", fmt.Sprintf("t%d", i))
			} else {
				db.Append(repro.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%64)},
					[]repro.Op{repro.Delta("balance", 1)},
					clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", "")
			}
		}
	}

	// Recovery: JSON-stream load vs WAL replay vs checkpointed recovery of a
	// summarised store.
	records := 4 * n
	for _, mode := range []string{"json", "wal", "ckpt-compacted"} {
		var recover func() uint64
		switch mode {
		case "json":
			src := lsdb.Open(lsdb.Options{Node: "e18"})
			types(src)
			seed(src, records)
			var stream bytes.Buffer
			if err := src.Save(&stream); err != nil {
				log.Fatalf("E18: %v", err)
			}
			raw := stream.Bytes()
			recover = func() uint64 {
				dst := lsdb.Open(lsdb.Options{Node: "e18"})
				types(dst)
				if err := dst.Load(bytes.NewReader(raw)); err != nil {
					log.Fatalf("E18: %v", err)
				}
				return dst.HeadLSN()
			}
		default:
			dir, err := os.MkdirTemp("", "e18-"+mode)
			if err != nil {
				log.Fatalf("E18: %v", err)
			}
			defer os.RemoveAll(dir)
			wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
			if err != nil {
				log.Fatalf("E18: %v", err)
			}
			src := lsdb.Open(lsdb.Options{Node: "e18", Backend: wal})
			types(src)
			seed(src, records)
			if mode == "ckpt-compacted" {
				src.Compact(src.HeadLSN())
				if err := src.Checkpoint(); err != nil {
					log.Fatalf("E18: %v", err)
				}
			}
			src.Close()
			recover = func() uint64 {
				w, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
				if err != nil {
					log.Fatalf("E18: %v", err)
				}
				rec, err := lsdb.Recover(lsdb.Options{Node: "e18", Backend: w},
					workload.AccountType(), workload.OrderType())
				if err != nil {
					log.Fatalf("E18: %v", err)
				}
				head := rec.HeadLSN()
				rec.Close()
				return head
			}
		}
		start := time.Now()
		const iters = 3
		for i := 0; i < iters; i++ {
			if head := recover(); head != uint64(records) {
				log.Fatalf("E18: recovered head %d, want %d", head, records)
			}
		}
		elapsed := time.Since(start) / iters
		tbl.AddRow("recover", mode, records, elapsed, opsPerSec(records, elapsed))
	}

	// Append overhead: what the durable log costs per write.
	for _, mode := range []string{"mem", "wal", "wal-fsync"} {
		opts := lsdb.Options{Node: "e18", Validation: entity.Managed}
		if mode != "mem" {
			sync := storage.SyncOS
			if mode == "wal-fsync" {
				sync = storage.SyncAlways
			}
			dir, err := os.MkdirTemp("", "e18-append")
			if err != nil {
				log.Fatalf("E18: %v", err)
			}
			defer os.RemoveAll(dir)
			wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, Sync: sync})
			if err != nil {
				log.Fatalf("E18: %v", err)
			}
			opts.Backend = wal
		}
		db := lsdb.Open(opts)
		db.RegisterType(workload.AccountType())
		total := n
		if mode == "wal-fsync" {
			total = n / 4
		}
		start := time.Now()
		for i := 0; i < total; i++ {
			db.Append(repro.Key{Type: "Account", ID: "hot"}, []repro.Op{repro.Delta("balance", 1)},
				clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", "")
		}
		elapsed := time.Since(start)
		db.Close()
		tbl.AddRow("append", mode, total, elapsed, opsPerSec(total, elapsed))
	}
	return tbl
}

// E19: the step pool (workers claiming whole entities) across workers ×
// entity skew. Steps
// carry a modeled 100µs service time, so throughput is step-latency-bound:
// uniform keys scale with workers, a single hot entity serialises by
// contract and must stay flat.
func e19(n int) *metrics.Table {
	tbl := metrics.NewTable("E19 — step pool: workers × entity skew (principles 2.5/2.6)",
		"skew", "workers", "steps", "ops/sec", "lane steals", "peak lane depth")
	const stepLatency = 100 * time.Microsecond
	const entities = 256
	for _, skew := range []string{"uniform", "zipfian", "single-hot"} {
		for _, workers := range []int{1, 2, 4, 8} {
			db := lsdb.Open(lsdb.Options{Node: "e19", Validation: entity.Managed, Shards: 8})
			db.RegisterType(workload.AccountType())
			mgr := txn.NewManager(db, nil, nil, txn.Options{Node: "e19"})
			q := queue.New("e19", queue.Options{})
			e := process.NewEngine(mgr, q, process.Options{Workers: workers})
			def := process.NewDefinition("e19")
			def.Step("e19.step", func(ctx *process.StepContext) error {
				time.Sleep(stepLatency)
				return ctx.Txn.Update(ctx.Event.Entity, repro.Delta("balance", 1))
			})
			if err := e.Register(def); err != nil {
				log.Fatalf("E19: %v", err)
			}
			zipf := workload.NewZipf(19, entities, 1.2)
			steps := n / 4
			for i := 0; i < steps; i++ {
				id := "acct-hot"
				switch skew {
				case "uniform":
					id = fmt.Sprintf("acct-%d", i%entities)
				case "zipfian":
					id = fmt.Sprintf("acct-%d", zipf.Next())
				}
				ev := queue.Event{
					Name:   "e19.step",
					Entity: repro.Key{Type: "Account", ID: id},
					TxnID:  fmt.Sprintf("e19-%d", i),
				}
				if err := e.Submit(ev); err != nil {
					log.Fatalf("E19: %v", err)
				}
			}
			start := time.Now()
			e.Start()
			deadline := time.Now().Add(5 * time.Minute)
			for e.Stats().StepsExecuted < uint64(steps) {
				if time.Now().After(deadline) {
					log.Fatalf("E19: timed out waiting for steps: %+v", e.Stats())
				}
				time.Sleep(100 * time.Microsecond)
			}
			elapsed := time.Since(start)
			e.Stop()
			stats := e.Stats()
			tbl.AddRow(skew, workers, steps, opsPerSec(steps, elapsed), stats.LaneSteals, stats.PeakLaneDepth)
		}
	}
	return tbl
}

// E10: out-of-order data entry.
func e10(n int) *metrics.Table {
	tbl := metrics.NewTable("E10 — out-of-order data entry: strict vs managed exceptions (principle 2.2)",
		"mode", "entries", "rejected", "managed warnings")
	for _, mode := range []repro.Consistency{repro.StrongSingleCopy, repro.EventualSOUPS} {
		k := mustKernel(repro.Options{Node: "e10", Consistency: mode})
		gen := workload.NewOrderToCash(7, 0.3)
		rejected, entered := 0, 0
		cases := n / 10
		for i := 0; i < cases; i++ {
			events := gen.NextCase()
			if !events[1].ForwardReference {
				custKey, _ := entity.ParseKey(events[1].Ops[0].Value.(string))
				k.Update(custKey, repro.Set("name", "known"))
			}
			for _, ev := range events {
				if _, err := k.Update(ev.Key, ev.Ops...); err != nil {
					rejected++
				} else {
					entered++
				}
			}
		}
		name := "strict"
		if mode == repro.EventualSOUPS {
			name = "managed"
		}
		tbl.AddRow(name, rejected+entered, rejected, k.WarningCount())
		k.Close()
	}
	return tbl
}

// E11: coarse vs fine logical locks.
func e11(n int) *metrics.Table {
	tbl := metrics.NewTable("E11 — coarse vs fine logical locks under contention (section 3.1)",
		"granularity", "acquisitions", "ops/sec", "timeouts")
	for _, coarse := range []bool{true, false} {
		lm := locks.NewManager(locks.Options{})
		zipf := workload.NewZipf(5, 256, 1.1)
		var wg sync.WaitGroup
		var timeouts atomic.Int64
		per := n / 8
		start := time.Now()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					owner := locks.Owner(fmt.Sprintf("w%d-%d", w, i))
					res := locks.FineResource("Inventory", fmt.Sprintf("item-%d", zipf.Next()))
					if coarse {
						res = locks.CoarseResource("Inventory", "plant-1")
					}
					if err := lm.Acquire(owner, res, locks.Exclusive, 0, 50*time.Millisecond); err != nil {
						timeouts.Add(1)
						continue
					}
					lm.Release(owner, res)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		name := "fine (per item)"
		if coarse {
			name = "coarse (per plant)"
		}
		tbl.AddRow(name, 8*per, opsPerSec(8*per, elapsed), timeouts.Load())
	}
	return tbl
}

// E12: online vs stop-the-world schema migration with live writers.
func e12(n int) *metrics.Table {
	tbl := metrics.NewTable("E12 — online vs stop-the-world schema migration (section 3.1)",
		"strategy", "entities backfilled", "migration time", "live writes", "live writes blocked")
	for _, strategy := range []migrate.Strategy{migrate.Online, migrate.StopTheWorld} {
		k := mustKernel(repro.Options{Node: clock.NodeID("e12-" + strategy.String())})
		entities := n / 4
		for i := 0; i < entities; i++ {
			k.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, repro.Set("status", "OPEN"))
		}
		stop := make(chan struct{})
		var writes, blocked atomic.Int64
		go func() {
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				owner := locks.Owner(fmt.Sprintf("live-%d", i))
				if k.Locks().IsLockedByOther(owner, migrate.MigrationLockResource("Order"), locks.Shared) {
					blocked.Add(1)
					time.Sleep(100 * time.Microsecond)
					continue
				}
				if _, err := k.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i%entities)}, repro.Set("status", "TOUCHED")); err != nil {
					blocked.Add(1)
				} else {
					writes.Add(1)
				}
				i++
			}
		}()
		start := time.Now()
		_, err := k.Migrate(migrate.Migration{
			Type:      "Order",
			AddFields: []repro.Field{{Name: "channel", Type: repro.String}},
			Backfill:  func(*repro.State) []repro.Op { return []repro.Op{repro.Set("channel", "direct")} },
		}, strategy, 32)
		elapsed := time.Since(start)
		close(stop)
		if err != nil {
			log.Fatalf("E12: %v", err)
		}
		tbl.AddRow(strategy.String(), entities, elapsed, writes.Load(), blocked.Load())
		k.Close()
	}
	return tbl
}

// e22 measures the two claims behind the LSM tier (section 3.1, PR 9). First,
// persistence must come off the hot path: the legacy Checkpoint holds every
// shard lock while it serializes and fsyncs the full store, so a writer that
// arrives mid-checkpoint stalls for the whole disk write, while the tiered
// flush captures dirty state under the shard locks only long enough to copy
// pointers and does its serialization and fsync in the background. Second,
// recovery must stay bounded: because legacy checkpoints stall writers,
// operators take them rarely and WAL replay grows with history, whereas the
// tiered store replays the newest tables plus a short WAL tail no matter how
// much history has accumulated.
func e22(n int) *metrics.Table {
	tbl := metrics.NewTable("E22 — tiered storage: off-hot-path flushes and bounded recovery (section 3.1)",
		"phase", "mode", "records", "p99 append", "max append", "elapsed")

	open := func(mode, dir string) *lsdb.DB {
		wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
		if err != nil {
			log.Fatalf("E22: %v", err)
		}
		opts := lsdb.Options{Node: "e22"}
		if mode == "tiered" {
			store, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100})
			if err != nil {
				log.Fatalf("E22: %v", err)
			}
			opts.Backend = store
		} else {
			opts.Backend = wal
		}
		db := lsdb.Open(opts)
		db.RegisterType(workload.AccountType())
		db.RegisterType(workload.OrderType())
		return db
	}
	write := func(db *lsdb.DB, i int) {
		_, err := db.Append(repro.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%64)},
			[]repro.Op{repro.Delta("balance", 1)},
			clock.Timestamp{WallNanos: int64(i + 1), Node: "e22"}, "e22", "")
		if err != nil {
			log.Fatalf("E22: %v", err)
		}
	}

	// Phase 1 — checkpoint stall: preload history, then append continuously
	// while a checkpoint/flush of that history runs. The recorded per-append
	// latencies show the stop-the-world quiesce (legacy) against the
	// off-hot-path flush (tiered).
	history := 32 * n
	for _, mode := range []string{"legacy", "tiered"} {
		dir, err := os.MkdirTemp("", "e22-stall-"+mode)
		if err != nil {
			log.Fatalf("E22: %v", err)
		}
		defer os.RemoveAll(dir)
		db := open(mode, dir)
		for i := 0; i < history; i++ {
			write(db, i)
		}
		hist := metrics.NewHistogram()
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- db.Checkpoint() }()
		// Keep appending until the checkpoint finishes (and for at least n
		// appends) so the timed writes are guaranteed to span the lock
		// window — otherwise a scheduling accident can let every append run
		// before the checkpoint goroutine is even dispatched.
		finished := false
		for i := 0; i < n || !finished; i++ {
			if !finished {
				select {
				case err := <-done:
					if err != nil {
						log.Fatalf("E22 %s checkpoint: %v", mode, err)
					}
					finished = true
				default:
				}
			}
			t0 := time.Now()
			write(db, history+i)
			hist.Record(time.Since(t0))
		}
		tbl.AddRow("ckpt-stall", mode, history, hist.Quantile(0.99), hist.Max(), time.Since(start))
		if err := db.Close(); err != nil {
			log.Fatalf("E22: %v", err)
		}
	}

	// Phase 2 — recovery vs history. The legacy store replays its whole WAL
	// (checkpoints are avoided because phase 1 shows what they cost); the
	// tiered store flushes every quarter of the load, so recovery reads the
	// newest tables plus a short tail regardless of total history.
	for _, mode := range []string{"legacy", "tiered"} {
		for _, records := range []int{2 * n, 8 * n} {
			dir, err := os.MkdirTemp("", "e22-recover-"+mode)
			if err != nil {
				log.Fatalf("E22: %v", err)
			}
			defer os.RemoveAll(dir)
			db := open(mode, dir)
			for i := 0; i < records; i++ {
				write(db, i)
				if mode == "tiered" && (i+1)%(records/4) == 0 {
					if err := db.Checkpoint(); err != nil {
						log.Fatalf("E22: %v", err)
					}
				}
			}
			head := db.HeadLSN()
			if err := db.Close(); err != nil {
				log.Fatalf("E22: %v", err)
			}
			t0 := time.Now()
			rec := func() *lsdb.DB {
				wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
				if err != nil {
					log.Fatalf("E22: %v", err)
				}
				opts := lsdb.Options{Node: "e22"}
				if mode == "tiered" {
					store, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100})
					if err != nil {
						log.Fatalf("E22: %v", err)
					}
					opts.Backend = store
				} else {
					opts.Backend = wal
				}
				r, err := lsdb.Recover(opts, workload.AccountType(), workload.OrderType())
				if err != nil {
					log.Fatalf("E22 recover (%s): %v", mode, err)
				}
				return r
			}()
			elapsed := time.Since(t0)
			if rec.HeadLSN() != head {
				log.Fatalf("E22: recovered head %d, want %d", rec.HeadLSN(), head)
			}
			tbl.AddRow("recovery", mode, records, "-", "-", elapsed)
			if err := rec.Close(); err != nil {
				log.Fatalf("E22: %v", err)
			}
		}
	}
	return tbl
}

// Benchmarks E1..E22: one per experiment in DESIGN.md / EXPERIMENTS.md, and
// the only definition of each (E23 is cmd/soupsbench), plus the component
// row BenchmarkKernelReadParallel.
//
// The paper publishes no tables or figures, so each benchmark
// operationalises one of its qualitative claims as a comparison between the
// principled design and the conventional baseline. Numbers are reported as
// ns/op plus experiment-specific metrics via b.ReportMetric (aborts/op,
// apology rate, availability, lost updates, convergence rounds, ...), and an
// outcome the experiment guarantees (operation replay loses nothing, the
// majority side of a quorum stays writable, catch-up converges) fails the
// run when it does not hold.
package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"

	"repro/internal/clock"
	"repro/internal/entity"
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

func mustKernel(b *testing.B, opts repro.Options) *repro.Kernel {
	b.Helper()
	k, err := repro.Bootstrap(opts, repro.StandardTypes()...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(k.Close)
	return k
}

// --- E1: deferred vs synchronous hot aggregate (principle 2.3) --------------

func BenchmarkE1AggregateSyncVsDeferred(b *testing.B) {
	for _, mode := range []string{"sync", "deferred"} {
		b.Run(mode, func(b *testing.B) {
			deferred := mode == "deferred"
			k := mustKernel(b, repro.Options{Node: "e1"})
			update := k.Update
			if !deferred {
				update = newStrong(k).syncUpdate
			}
			k.DefineSumAggregate("revenue", "Order", "total", "")
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					key := repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}
					if _, err := update(key, repro.Set("total", 10.0)); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			// Records the aggregate has not folded in yet when the load
			// stops: none when maintained synchronously.
			stale := k.AggregateStaleness()
			if !deferred && stale != 0 {
				b.Fatalf("synchronous aggregate %d records behind", stale)
			}
			b.ReportMetric(float64(stale), "stale-records")
			k.CatchUpAggregates()
			total, _ := k.Sum("revenue", "")
			if total != float64(seq.Load())*10 {
				b.Fatalf("aggregate wrong: %v vs %v writes", total, seq.Load())
			}
		})
	}
}

// --- E2: SOUPS vs two-phase commit across partitions (principles 2.5/2.6) ---

func BenchmarkE2SoupsVs2PC(b *testing.B) {
	for _, cross := range []float64{0.0, 0.5, 1.0} {
		for _, mode := range []string{"soups", "2pc"} {
			b.Run(fmt.Sprintf("%s/cross=%.0f%%", mode, cross*100), func(b *testing.B) {
				k := mustKernel(b, repro.Options{Node: "e2", Units: 4})
				transactMulti := k.TransactMulti
				if mode == "2pc" {
					transactMulti = newStrong(k).TransactMulti
				}
				gen := workload.NewTransfers(42, 1000, cross)
				lat := metrics.NewHistogram()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr := gen.Next()
					t0 := time.Now()
					err := transactMulti([]repro.MultiWrite{
						{Key: tr.From, Ops: []repro.Op{repro.Delta("balance", -tr.Amount)}},
						{Key: tr.To, Ops: []repro.Op{repro.Delta("balance", tr.Amount)}},
					})
					lat.Record(time.Since(t0))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(lat.Quantile(0.99))/1e3, "p99-us")
				// Every transfer moved money without making or losing any:
				// once the queued halves are delivered, the accounts sum to 0.
				k.Drain()
				sum := 0.0
				k.Query("Account", func(st *repro.State) bool { sum += st.Float("balance"); return true })
				if sum != 0 {
					b.Fatalf("accounts sum to %v after %d transfers, want 0", sum, b.N)
				}
			})
		}
	}
}

// --- E3: solipsistic vs optimistic vs pessimistic CC (principle 2.10) -------

func BenchmarkE3ConcurrencyControl(b *testing.B) {
	// The optimistic row validates its read at commit (the optimistic
	// fixture); the pessimistic row is the strong baseline's, a solipsistic
	// transaction under an exclusive logical lock (lockAll).
	for _, name := range []string{"solipsistic", "optimistic", "pessimistic"} {
		b.Run(name, func(b *testing.B) {
			db := lsdb.Open(lsdb.Options{Node: "e3", SnapshotEvery: 64, Validation: entity.Managed})
			if err := db.RegisterType(workload.AccountType()); err != nil {
				b.Fatal(err)
			}
			mgr := txn.NewManager(db, nil, txn.Options{Node: "e3"})
			lt := newLockTable()
			zipf := workload.NewZipf(7, 64, 1.2)
			var aborts, lockTimeouts atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					key := repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", zipf.Next())}
					deposit := func(t *txn.Txn) error {
						if _, err := t.Read(key); err != nil {
							return err
						}
						return t.Update(key, repro.Delta("balance", 1))
					}
					var err error
					switch name {
					case "optimistic":
						err = optimistic(mgr, []repro.Key{key}, deposit)
					case "pessimistic":
						err = lockAll(lt, []repro.Key{key}, 50*time.Millisecond, func() error {
							_, err := mgr.Run(nil, deposit)
							return err
						})
					default:
						_, err = mgr.Run(nil, deposit)
					}
					if errors.Is(err, errLockTimeout) {
						lockTimeouts.Add(1)
					}
					if err != nil {
						aborts.Add(1)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")
			b.ReportMetric(float64(lockTimeouts.Load())/float64(b.N), "lock-timeouts/op")
		})
	}
}

// --- E4: conflict resolution — LWW vs operation replay (principles 2.7/2.8) --

func BenchmarkE4ConflictResolution(b *testing.B) {
	typ := workload.AccountType()
	key := repro.Key{Type: "Account", ID: "A"}
	strategies := map[string]MergeStrategy{
		"last-writer-wins": LastWriterWins,
		"operation-replay": OperationReplay,
	}
	for name, strategy := range strategies {
		b.Run(name, func(b *testing.B) {
			base := entity.NewState(key)
			base.Fields["balance"] = float64(0)
			var lost, correct int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Two replicas concurrently deposit different amounts.
				mkVersion := func(node string, amount float64, wall int64) *entity.Version {
					ops := []repro.Op{repro.Delta("balance", amount), repro.InsertChild("entries", fmt.Sprintf("%s-%d", node, i), repro.Fields{"kind": "deposit", "amount": amount})}
					st, _, err := entity.Apply(typ, base, ops, entity.Managed)
					if err != nil {
						b.Fatal(err)
					}
					return &entity.Version{Key: key, Ops: ops, State: st, Stamp: clock.Timestamp{WallNanos: wall, Node: clock.NodeID(node)}}
				}
				a := mkVersion("r1", 10, int64(i*2+1))
				c := mkVersion("r2", 7, int64(i*2+2))
				res, err := Merge(typ, base, a, c, strategy)
				if err != nil {
					b.Fatal(err)
				}
				lost += res.LostOps
				if res.State.Float("balance") == 17 {
					correct++
				} else if strategy == OperationReplay {
					b.Fatalf("operation replay ended at balance %v, want 17", res.State.Float("balance"))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(lost)/float64(b.N), "lostops/op")
			b.ReportMetric(float64(correct)/float64(b.N), "correct-share")
		})
	}
}

// --- E5: availability under partition (principle 2.11 / CAP) ----------------

// shippingPrimary opens a one-unit store that ships to fresh in-memory
// standbys over net (E5, E7). The caller closes the shipper.
func shippingPrimary(b *testing.B, net *netsim.Network, self clock.NodeID, ids []clock.NodeID, mode replica.AckMode) (*lsdb.DB, *replica.Shipper, []*replica.Standby) {
	b.Helper()
	db := lsdb.Open(lsdb.Options{Node: self, Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(workload.AccountType()); err != nil {
		b.Fatal(err)
	}
	standbys := make([]*replica.Standby, len(ids))
	for i, id := range ids {
		sb, err := replica.NewStandby(replica.StandbyOptions{
			Self: id, Net: net, Backends: []storage.Backend{storage.NewMemory()},
		})
		if err != nil {
			b.Fatal(err)
		}
		standbys[i] = sb
	}
	sh := replica.NewShipper(replica.ShipperOptions{
		Self: self, Standbys: ids, Mode: mode, Net: net,
		Source: func(_ int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
	})
	db.SetCommitSink(sh.Sink(0))
	return db, sh, standbys
}

// A primary ships to two standbys and is cut off from both ("minority": it
// is alone) or from one ("majority": it and one standby are two of three)
// for the whole run while a client keeps writing. Availability is the share
// of writes acked without ErrStandbyAcks. Async shipping acks every write on
// either side; quorum shipping acks on the majority side and refuses every
// write on the minority side (the write commits locally, but its client is
// told the replication guarantee failed).
func BenchmarkE5AvailabilityUnderPartition(b *testing.B) {
	stamp := func(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "e5-p"} }
	for _, mode := range []replica.AckMode{replica.AckQuorum, replica.AckAsync} {
		for _, side := range []string{"minority", "majority"} {
			b.Run(fmt.Sprintf("%s/side=%s", mode, side), func(b *testing.B) {
				net := netsim.New(netsim.Config{UnreachableDelay: 200 * time.Microsecond})
				defer net.Close()
				standbys := []clock.NodeID{"e5-s1", "e5-s2"}
				db, sh, _ := shippingPrimary(b, net, "e5-p", standbys, mode)
				defer sh.Close()
				if side == "minority" {
					net.Partition([]clock.NodeID{"e5-p"}, standbys)
				} else {
					net.Partition([]clock.NodeID{"e5-p", "e5-s1"}, standbys[1:])
				}
				key := repro.Key{Type: "Account", ID: "A"}
				success := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, stamp(int64(i+1)), "e5-p", fmt.Sprintf("e5-%d", i))
					switch {
					case err == nil:
						success++
					case !errors.Is(err, replica.ErrStandbyAcks):
						b.Fatal(err)
					}
				}
				b.StopTimer()
				availability := float64(success) / float64(b.N)
				want := 1.0
				if mode == replica.AckQuorum && side == "minority" {
					want = 0
				}
				if availability != want {
					b.Fatalf("%s side acked %d of %d writes, want availability %v", side, success, b.N, want)
				}
				b.ReportMetric(availability, "availability")
			})
		}
	}
}

// --- E6: apologies vs strong consistency for overbooking (principle 2.9) ----

func BenchmarkE6ApologyVsStrong(b *testing.B) {
	const stock, demand = 5, 8
	b.Run("eventual-apology", func(b *testing.B) {
		var apologyRate float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k := mustKernel(b, repro.Options{Node: "e6"})
			key := repro.Key{Type: "Book", ID: "bestseller"}
			k.Update(key, repro.Set("stock", stock))
			store := workload.NewBookstore(stock, demand)
			b.StartTimer()
			// Order entry: every customer gets an immediate tentative
			// confirmation (fast response, subjective consistency).
			for _, o := range store.Orders() {
				if _, err := k.UpdateTentative(key, o.Customer, "order-confirmation", float64(o.Qty),
					repro.Delta("stock", -float64(o.Qty))); err != nil {
					b.Fatal(err)
				}
			}
			// Fulfillment: reconcile against real stock; the overbooked tail
			// gets apologies.
			kept, apologies, err := k.ResolveOverbooking(key, stock, "only 5 copies in stock", "refund")
			if err != nil {
				b.Fatal(err)
			}
			if kept != stock || len(apologies) != demand-stock {
				b.Fatalf("kept=%d apologies=%d", kept, len(apologies))
			}
			apologyRate = k.Ledger().ApologyRate()
		}
		b.ReportMetric(apologyRate, "apology-rate")
		b.ReportMetric(demand, "confirmed-at-entry")
	})
	b.Run("strong-reject", func(b *testing.B) {
		var rejectRate float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStrong(mustKernel(b, repro.Options{Node: "e6s"}))
			key := repro.Key{Type: "Book", ID: "bestseller"}
			s.Update(key, repro.Set("stock", stock))
			store := workload.NewBookstore(stock, demand)
			rejected := 0
			b.StartTimer()
			// Order entry checks stock synchronously under pessimistic locks:
			// no apologies, but the tail of customers is turned away at order
			// time (and every order pays the locking cost).
			for _, o := range store.Orders() {
				_, err := s.Transact(key, func(t *txn.Txn) error {
					st, err := t.Read(key)
					if err != nil {
						return err
					}
					if st.Int("stock") < o.Qty {
						return errors.New("out of stock")
					}
					return t.Update(key, repro.Delta("stock", -float64(o.Qty)))
				})
				if err != nil {
					rejected++
				}
			}
			if rejected != demand-stock {
				b.Fatalf("rejected %d orders at entry, want %d", rejected, demand-stock)
			}
			rejectRate = float64(rejected) / float64(demand)
		}
		b.ReportMetric(rejectRate, "reject-rate")
		b.ReportMetric(stock, "confirmed-at-entry")
		b.ReportMetric(0, "apology-rate")
	})
}

// --- E7: convergence / staleness vs catch-up (eventual consistency) --------

// e7MaxRounds bounds catch-up: standbys that have not reached the primary's
// head within this many rounds under 30 % loss fail the run.
const e7MaxRounds = 1000

// A primary ships async to N standbys over a network that loses 30 % of
// messages, ships and catch-up requests alike. Each round every standby runs
// CatchUp; the run has converged when every standby's watermark is the
// primary's head LSN. One standby is then promoted, and its balance must
// equal the primary's: replicas that hold the same operation records replay
// them to the same state (principle 2.8).
func BenchmarkE7ConvergenceStaleness(b *testing.B) {
	const writes = 10
	stamp := func(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "e7-p"} }
	key := repro.Key{Type: "Account", ID: "A"}
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("standbys=%d", n), func(b *testing.B) {
			var totalConverge time.Duration
			var totalRounds int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := netsim.New(netsim.Config{LossRate: 0.3, Seed: int64(i + 1)})
				ids := make([]clock.NodeID, n)
				for s := range ids {
					ids[s] = clock.NodeID(fmt.Sprintf("e7-s%d", s))
				}
				db, sh, standbys := shippingPrimary(b, net, "e7-p", ids, replica.AckAsync)
				b.StartTimer()
				for w := 0; w < writes; w++ {
					if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, stamp(int64(w+1)), "e7-p", ""); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				for rounds := 1; ; rounds++ {
					if rounds > e7MaxRounds {
						b.Fatalf("%d standbys not at head LSN %d after %d catch-up rounds", n, db.HeadLSN(), e7MaxRounds)
					}
					done := true
					for _, sb := range standbys {
						_, _ = sb.CatchUp("e7-p", 0) // a lost request is retried next round
						done = done && sb.Watermark(0) == db.HeadLSN()
					}
					if done {
						totalRounds += rounds
						break
					}
				}
				totalConverge += time.Since(start)
				b.StopTimer()
				sh.Drain()
				sh.Close()
				net.Close()
				backends, err := standbys[0].Fence(nil)
				if err != nil {
					b.Fatal(err)
				}
				promoted, err := lsdb.Recover(lsdb.Options{Node: ids[0], Backend: backends[0]}, workload.AccountType())
				if err != nil {
					b.Fatal(err)
				}
				got, _, err := promoted.Current(key)
				if err != nil {
					b.Fatal(err)
				}
				want, _, _ := db.Current(key)
				if got.Float("balance") != want.Float("balance") {
					b.Fatalf("promoted balance %v, primary %v", got.Float("balance"), want.Float("balance"))
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(totalConverge.Microseconds())/float64(b.N), "convergence-us/op")
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
		})
	}
}

// --- E8: step collapsing (section 3.1) ---------------------------------------

func BenchmarkE8StepCollapsing(b *testing.B) {
	pipeline := func() *repro.ProcessDefinition {
		def := repro.NewProcess("order-to-cash")
		def.Step("order.created", func(ctx *process.StepContext) error {
			if err := ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "OPEN")); err != nil {
				return err
			}
			ctx.Emit(queue.Event{Name: "inventory.reserve", Entity: repro.Key{Type: "Inventory", ID: "widget"}})
			return nil
		})
		def.Step("inventory.reserve", func(ctx *process.StepContext) error {
			if err := ctx.Txn.Update(ctx.Event.Entity, repro.Delta("onhand", -1)); err != nil {
				return err
			}
			ctx.Emit(queue.Event{Name: "shipment.create", Entity: repro.Key{Type: "Order", ID: "ship-" + ctx.Event.TxnID}})
			return nil
		})
		def.Step("shipment.create", func(ctx *process.StepContext) error {
			return ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "PLANNED"))
		})
		return def
	}
	for _, collapse := range []bool{false, true} {
		name := "queued"
		if collapse {
			name = "vertical-collapse"
		}
		b.Run(name, func(b *testing.B) {
			k := mustKernel(b, repro.Options{Node: "e8", CollapseVertical: collapse})
			if err := k.DefineProcess(pipeline()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Submit(repro.Event{Name: "order.created", Entity: repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, TxnID: fmt.Sprintf("e8-%d", i)})
				k.Drain()
			}
			b.StopTimer()
			stats := k.ProcessStats()
			if stats.StepsExecuted != uint64(3*b.N) {
				b.Fatalf("executed %d steps for %d pipelines, want %d", stats.StepsExecuted, b.N, 3*b.N)
			}
			if !collapse && stats.Collapsed != 0 {
				b.Fatalf("queued mode collapsed %d steps inline", stats.Collapsed)
			}
			b.ReportMetric(float64(stats.Collapsed)/float64(b.N), "collapsed/op")
		})
	}
}

// --- E9: LSDB rollup cost vs log length (section 3.1) ------------------------

// E9 measures the raw rollup read path, so the materialised state cache is
// disabled; E13 measures the cache itself against this baseline.
func BenchmarkE9LSDBRollup(b *testing.B) {
	for _, logLen := range []int{100, 10000} {
		for _, snapshot := range []bool{false, true} {
			name := fmt.Sprintf("events=%d/snapshot=%v", logLen, snapshot)
			b.Run(name, func(b *testing.B) {
				snapEvery := 0
				if snapshot {
					snapEvery = 256
				}
				db := lsdb.Open(lsdb.Options{Node: "e9", SnapshotEvery: snapEvery, Validation: entity.Managed, DisableStateCache: true})
				if err := db.RegisterType(workload.AccountType()); err != nil {
					b.Fatal(err)
				}
				key := repro.Key{Type: "Account", ID: "A"}
				for i := 0; i < logLen; i++ {
					if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e9"}, "e9", ""); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := db.Current(key); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E13: materialised reads vs rollup at long histories (section 3.1) -------

// E13 is the read-heavy experiment for the materialised current-state cache:
// with the cache, Current is a map hit plus one state clone regardless of
// how many records the entity has accumulated; the rollup baseline (no
// cache, no snapshots) scales with history length.
func BenchmarkE13MaterialisedReads(b *testing.B) {
	for _, history := range []int{100, 1000} {
		for _, mode := range []string{"rollup", "cached"} {
			b.Run(fmt.Sprintf("history=%d/%s", history, mode), func(b *testing.B) {
				db := lsdb.Open(lsdb.Options{Node: "e13", Validation: entity.Managed, DisableStateCache: mode == "rollup"})
				if err := db.RegisterType(workload.AccountType()); err != nil {
					b.Fatal(err)
				}
				key := repro.Key{Type: "Account", ID: "A"}
				for i := 0; i < history; i++ {
					if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e13"}, "e13", ""); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						st, _, err := db.Current(key)
						if err != nil || st.Float("balance") != float64(history) {
							b.Errorf("Current: %v %v", st, err)
							return
						}
					}
				})
			})
		}
	}
}

// --- Kernel read path: routing plus a cached state -----------------------------

// BenchmarkKernelReadParallel is Kernel.Read from every P over 1024 cached
// entities on four units: directory lookup, unit map, shard choice, type
// lookup and the shard read lock around a lent state. Allocations are 0;
// what the routing costs is its share of atomics and locks on cache lines
// every reader touches.
func BenchmarkKernelReadParallel(b *testing.B) {
	k := mustKernel(b, repro.Options{Node: "bench", Units: 4})
	keys := make([]repro.Key, 1024)
	for i := range keys {
		keys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("A-%d", i)}
		if _, err := k.Update(keys[i], repro.Delta("balance", 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Uint32
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(257))
		for pb.Next() {
			if _, err := k.Read(keys[i%len(keys)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- E14: mixed append/scan workload across shard counts (section 3.1) -------

// E14 is the mixed-scan experiment for lock striping: concurrent writers
// append to disjoint entities while scans sweep the whole type. With one
// shard every operation serialises on a single store lock; with eight,
// writers on different stripes proceed in parallel and scans only hold one
// stripe at a time.
func BenchmarkE14ShardedMixedScan(b *testing.B) {
	const entities = 256
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := lsdb.Open(lsdb.Options{Node: "e14", Validation: entity.Managed, Shards: shards})
			if err := db.RegisterType(workload.AccountType()); err != nil {
				b.Fatal(err)
			}
			keys := make([]repro.Key, entities)
			for i := range keys {
				keys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", i)}
				if _, err := db.Append(keys[i], []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e14"}, "e14", ""); err != nil {
					b.Fatal(err)
				}
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					if i%16 == 0 {
						if err := db.Scan("Account", func(*entity.State) bool { return true }); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					key := keys[int(i)%entities]
					if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: int64(entities + int(i)), Node: "e14"}, "e14", ""); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// --- E15: copy-on-write states vs deep clones on wide entities (section 3.1) --

// seedWideOrder builds one Order with `width` line items in the given store.
func seedWideOrder(b *testing.B, db *lsdb.DB, key repro.Key, width int) {
	b.Helper()
	if _, err := db.Append(key, []repro.Op{repro.Set("status", "OPEN")}, clock.Timestamp{WallNanos: 1, Node: "seed"}, "seed", ""); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < width; i++ {
		ops := []repro.Op{repro.InsertChild("lineitems", fmt.Sprintf("L%d", i), repro.Fields{"product": "widget", "qty": 1, "price": 9.5})}
		if _, err := db.Append(key, ops, clock.Timestamp{WallNanos: int64(i + 2), Node: "seed"}, "seed", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// deepCloned is where the deep-clone baseline of E15/E16 leaves its copies,
// so the compiler cannot drop them.
var deepCloned *entity.State

// E15 is the wide-entity experiment for copy-on-write states: with COW a
// cache-hit read hands out the frozen state (no copy at all) and a write
// copies only the chunk it touches, so both are flat in child-collection
// width. The deep-clone baseline is the pre-COW contract, run here on top of
// the store: every read deep-clones the state it got, and every write first
// reads and deep-clones the prior state, paying O(width) each time.
func BenchmarkE15WideEntityCOW(b *testing.B) {
	for _, width := range []int{10, 100, 1000} {
		for _, mode := range []string{"deepclone", "cow"} {
			newDB := func() *lsdb.DB {
				db := lsdb.Open(lsdb.Options{Node: "e15", Validation: entity.Managed})
				if err := db.RegisterType(workload.OrderType()); err != nil {
					b.Fatal(err)
				}
				return db
			}
			key := repro.Key{Type: "Order", ID: "wide"}
			b.Run(fmt.Sprintf("width=%d/%s/read", width, mode), func(b *testing.B) {
				db := newDB()
				seedWideOrder(b, db, key, width)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, _, err := db.Current(key)
					if err == nil && mode == "deepclone" {
						st = st.DeepClone()
						deepCloned = st
					}
					if err != nil || st.ChildCount("lineitems") != width {
						b.Fatalf("Current: %v children=%d", err, st.ChildCount("lineitems"))
					}
				}
			})
			b.Run(fmt.Sprintf("width=%d/%s/write", width, mode), func(b *testing.B) {
				db := newDB()
				seedWideOrder(b, db, key, width)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "deepclone" {
						prior, _, err := db.Current(key)
						if err != nil {
							b.Fatal(err)
						}
						deepCloned = prior.DeepClone()
					}
					child := fmt.Sprintf("L%d", i%width)
					ops := []repro.Op{entity.DeltaChildField("lineitems", child, "qty", 1)}
					if _, err := db.Append(key, ops, clock.Timestamp{WallNanos: int64(width + i + 2), Node: "e15"}, "e15", ""); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E16: scans and queries over wide entities (section 3.1) -----------------

// E16 measures Scan throughput when every entity is wide: with COW the scan
// shares each frozen state with the cache, so per-entity cost is the
// caller's own work; the deep-clone baseline copies every child row of every
// entity on every visit (a DeepClone in the callback).
func BenchmarkE16WideScan(b *testing.B) {
	const entities, width = 64, 256
	for _, mode := range []string{"deepclone", "cow"} {
		b.Run(mode, func(b *testing.B) {
			db := lsdb.Open(lsdb.Options{Node: "e16", Validation: entity.Managed})
			if err := db.RegisterType(workload.OrderType()); err != nil {
				b.Fatal(err)
			}
			for e := 0; e < entities; e++ {
				seedWideOrder(b, db, repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", e)}, width)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var qty int64
				err := db.Scan("Order", func(st *entity.State) bool {
					if mode == "deepclone" {
						st = st.DeepClone()
						deepCloned = st
					}
					for _, row := range st.LiveChildren("lineitems") {
						v, _ := row.Fields["qty"].(int64)
						qty += v
					}
					return true
				})
				if err != nil || qty < int64(entities*width) {
					b.Fatalf("scan: %v qty=%d", err, qty)
				}
			}
		})
	}
}

// --- E17: group-commit append batching under concurrent writers (section 3.1) --

// E17 is the multi-writer write-path experiment for group-commit batching:
// W concurrent writers append commutative deltas to a small hot key set, with
// per-append locking vs group commit (lsdb.Options.GroupCommit). The sync
// dimension selects the per-commit-cycle cost the batching amortises:
//
//   - sync=mem: the store is purely main-memory resident; the only fixed
//     costs are the shard-lock handoff and the global LSN allocation. Those
//     are scheduler-scale, so this dimension only separates the modes on
//     hardware with real parallelism.
//   - sync=fsync: every commit cycle forces a write-ahead line per record to
//     a real file and fsyncs it (lsdb.Options.CommitHook), the durability
//     cost any persistent log pays. Per-append locking pays one fsync per
//     append; group commit pays one per batch — the classic group-commit
//     amortisation, visible on any hardware.
//
// The equivalence suite (TestGroupCommitSerialEquivalenceRandomized and
// friends) pins down that the two modes are observationally identical; this
// benchmark measures what the batching buys.
func BenchmarkE17AppendBatch(b *testing.B) {
	const hotKeys = 16
	for _, syncMode := range []string{"mem", "fsync"} {
		for _, writers := range []int{1, 4, 8} {
			for _, shards := range []int{1, 8} {
				for _, mode := range []string{"per-append", "batched"} {
					name := fmt.Sprintf("sync=%s/writers=%d/shards=%d/%s", syncMode, writers, shards, mode)
					b.Run(name, func(b *testing.B) {
						// "W writers" means W truly concurrent writers: give
						// the scheduler enough Ps to run them in parallel even
						// on a small CI box, otherwise goroutines serialise
						// and no lock is ever contended — the regime this
						// experiment measures never happens.
						if procs := runtime.GOMAXPROCS(0); procs < writers {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writers))
						}
						opts := lsdb.Options{Node: "e17", Validation: entity.Managed, Shards: shards, GroupCommit: mode == "batched"}
						if syncMode == "fsync" {
							wal, err := os.CreateTemp(b.TempDir(), "e17-wal")
							if err != nil {
								b.Fatal(err)
							}
							defer wal.Close()
							opts.CommitHook = func(recs []lsdb.Record) {
								for _, rec := range recs {
									fmt.Fprintf(wal, "%d %s %d\n", rec.LSN, rec.Key.ID, len(rec.Ops))
								}
								if err := wal.Sync(); err != nil {
									b.Error(err)
								}
							}
						}
						db := lsdb.Open(opts)
						if err := db.RegisterType(workload.AccountType()); err != nil {
							b.Fatal(err)
						}
						keys := make([]repro.Key, hotKeys)
						for i := range keys {
							keys[i] = repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", i)}
						}
						var wg sync.WaitGroup
						var seq atomic.Int64
						b.ResetTimer()
						for w := 0; w < writers; w++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for {
									i := seq.Add(1)
									if i > int64(b.N) {
										return
									}
									key := keys[int(i)%hotKeys]
									if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)}, clock.Timestamp{WallNanos: i, Node: "e17"}, "e17", ""); err != nil {
										b.Error(err)
										return
									}
								}
							}()
						}
						wg.Wait()
						b.StopTimer()
						if db.Len() != b.N {
							b.Fatalf("log has %d records, want %d", db.Len(), b.N)
						}
					})
				}
			}
		}
	}
}

// --- E18: durable storage — recovery time and append overhead (section 3.1) --

// seedStorageBench fills a store with deltas over a fixed working set plus
// child-row traffic, the shape the recovery path has to replay.
func seedStorageBench(b *testing.B, db *lsdb.DB, records int) {
	b.Helper()
	for i := 0; i < records; i++ {
		var err error
		if i%8 == 0 {
			key := repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i%32)}
			_, err = db.Append(key, []repro.Op{
				repro.InsertChild("lineitems", fmt.Sprintf("L%d", i), repro.Fields{"product": "widget", "qty": int64(i % 7)}),
			}, clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", fmt.Sprintf("t%d", i))
		} else {
			key := repro.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%64)}
			_, err = db.Append(key, []repro.Op{repro.Delta("balance", 1)},
				clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", "")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func e18Types(b *testing.B, db *lsdb.DB) {
	b.Helper()
	for _, t := range []*entity.Type{workload.AccountType(), workload.OrderType()} {
		if err := db.RegisterType(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18Recovery compares restart cost across log lengths:
//
//   - stream: no storage engine — Save the whole log as a frame stream,
//     Load it back record by record. O(history), and every frame is
//     checked against its re-encoding on the way in.
//   - wal: segmented-WAL replay of a store that never flushed. Still
//     O(history), the same frames read back from segment files.
//   - tiered: the WAL under the LSM tier, flushed at shutdown; recovery
//     reads the table (summary pointers plus the detail still above each
//     entity's settled horizon) and the (empty) WAL tail.
//   - tiered-compacted: history summarised (Compact) before the flush, the
//     paper's archival principle 2.7 — the table holds summaries only, so
//     recovery cost drops to O(live entities), independent of how long the
//     log ever was.
func BenchmarkE18Recovery(b *testing.B) {
	for _, records := range []int{4096, 16384} {
		for _, mode := range []string{"stream", "wal", "tiered", "tiered-compacted"} {
			b.Run(fmt.Sprintf("records=%d/%s", records, mode), func(b *testing.B) {
				if mode == "stream" {
					src := lsdb.Open(lsdb.Options{Node: "e18"})
					e18Types(b, src)
					seedStorageBench(b, src, records)
					var stream bytes.Buffer
					if err := src.Save(&stream); err != nil {
						b.Fatal(err)
					}
					raw := stream.Bytes()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst := lsdb.Open(lsdb.Options{Node: "e18"})
						e18Types(b, dst)
						if err := dst.Load(bytes.NewReader(raw)); err != nil {
							b.Fatal(err)
						}
						if dst.HeadLSN() != uint64(records) {
							b.Fatalf("loaded head %d, want %d", dst.HeadLSN(), records)
						}
					}
					return
				}
				dir := b.TempDir()
				layout := "tiered"
				if mode == "wal" {
					layout = "legacy"
				}
				src := lsdb.Open(lsdb.Options{Node: "e18", Backend: e22Backend(b, layout, dir)})
				e18Types(b, src)
				seedStorageBench(b, src, records)
				if mode == "tiered-compacted" {
					src.Compact(src.HeadLSN())
				}
				if err := src.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				if err := src.Close(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, err := lsdb.Recover(lsdb.Options{Node: "e18", Backend: e22Backend(b, layout, dir)},
						workload.AccountType(), workload.OrderType())
					if err != nil {
						b.Fatal(err)
					}
					if rec.HeadLSN() != uint64(records) {
						b.Fatalf("recovered head %d, want %d", rec.HeadLSN(), records)
					}
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE18AppendOverhead prices durability on the write path: the same
// single-writer append stream against no backend, a page-cache WAL, and a
// WAL that fsyncs every commit cycle. Combine with E17 for the group-commit
// amortisation of that fsync across concurrent writers.
func BenchmarkE18AppendOverhead(b *testing.B) {
	for _, mode := range []string{"mem", "wal", "wal-fsync"} {
		b.Run(mode, func(b *testing.B) {
			opts := lsdb.Options{Node: "e18", Validation: entity.Managed}
			if mode != "mem" {
				sync := storage.SyncOS
				if mode == "wal-fsync" {
					sync = storage.SyncAlways
				}
				wal, err := storage.OpenWAL(storage.WALOptions{Dir: b.TempDir(), Sync: sync})
				if err != nil {
					b.Fatal(err)
				}
				opts.Backend = wal
			}
			db := lsdb.Open(opts)
			if err := db.RegisterType(workload.AccountType()); err != nil {
				b.Fatal(err)
			}
			key := repro.Key{Type: "Account", ID: "hot"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Append(key, []repro.Op{repro.Delta("balance", 1)},
					clock.Timestamp{WallNanos: int64(i + 1), Node: "e18"}, "e18", ""); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- E19: work-stealing step pool across workers × entity skew (2.5/2.6) -----

// e19Skews are the entity-key distributions E19 sweeps: uniform spreads
// steps over many independent entities (the regime where cross-entity
// parallelism must scale), zipfian concentrates most steps on a few hot
// entities, and single-hot sends every step to one entity — the regime
// where the ordering contract forces full serialisation and extra workers
// must buy nothing (and break nothing).
var e19Skews = []string{"uniform", "zipfian", "single-hot"}

// e19Key picks the i-th event's entity under a skew.
func e19Key(skew string, zipf *workload.Zipf, i int) repro.Key {
	const entities = 256
	switch skew {
	case "uniform":
		return repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", i%entities)}
	case "zipfian":
		return repro.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", zipf.Next())}
	default:
		return repro.Key{Type: "Account", ID: "acct-hot"}
	}
}

// BenchmarkE19WorkStealingPool measures the process engine's worker pool
// (workers claiming whole entities from the queue's mailboxes): throughput
// of a fixed-latency step across worker counts and entity skews. Each step models a realistic service time (a downstream call, a
// log force) with a 100µs wait before its transaction commits, so the
// scaling regime is step-latency-bound — the regime the pool exists for —
// and the results are comparable across hosts regardless of core count
// (the same honesty note as E17's sync=mem rows: pure-CPU steps cannot
// scale past the hardware's parallelism). Uniform keys should scale with
// workers; single-hot must stay flat — per-entity serialisation is the
// contract, not a bottleneck to fix. Lane steals — claims of an entity by a
// worker other than its previous owner — are reported per 1000 steps.
func BenchmarkE19WorkStealingPool(b *testing.B) {
	const stepLatency = 100 * time.Microsecond
	for _, skew := range e19Skews {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("skew=%s/workers=%d", skew, workers), func(b *testing.B) {
				db := lsdb.Open(lsdb.Options{Node: "e19", Validation: entity.Managed, Shards: 8})
				if err := db.RegisterType(workload.AccountType()); err != nil {
					b.Fatal(err)
				}
				mgr := txn.NewManager(db, nil, txn.Options{Node: "e19"})
				q := queue.New("e19", queue.Options{})
				e := process.NewEngine(mgr, q, process.Options{Workers: workers})
				def := process.NewDefinition("e19")
				def.Step("e19.step", func(ctx *process.StepContext) error {
					time.Sleep(stepLatency)
					return ctx.Txn.Update(ctx.Event.Entity, repro.Delta("balance", 1))
				})
				if err := e.Register(def); err != nil {
					b.Fatal(err)
				}
				zipf := workload.NewZipf(19, 256, 1.2)
				for i := 0; i < b.N; i++ {
					ev := queue.Event{
						Name:   "e19.step",
						Entity: e19Key(skew, zipf, i),
						TxnID:  fmt.Sprintf("e19-%d", i),
					}
					if err := e.Submit(ev); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				e.Start()
				deadline := time.Now().Add(5 * time.Minute)
				for e.Stats().StepsExecuted < uint64(b.N) {
					if time.Now().After(deadline) {
						b.Fatalf("timed out: %+v", e.Stats())
					}
					time.Sleep(50 * time.Microsecond)
				}
				b.StopTimer()
				e.Stop()
				stats := e.Stats()
				if stats.StepsExecuted != uint64(b.N) {
					b.Fatalf("steps executed = %d, want %d", stats.StepsExecuted, b.N)
				}
				b.ReportMetric(float64(stats.LaneSteals)*1000/float64(b.N), "steals/1ksteps")
				b.ReportMetric(float64(stats.PeakLaneDepth), "peak-lane-depth")
			})
		}
	}
}

// --- E10: out-of-order data entry — strict vs managed (principle 2.2) --------

func BenchmarkE10OutOfOrderEntry(b *testing.B) {
	for _, mode := range []string{"strict", "managed"} {
		b.Run(mode, func(b *testing.B) {
			k := mustKernel(b, repro.Options{Node: "e10"})
			update := k.Update
			if mode == "strict" {
				update = newStrong(k).Update
			}
			gen := workload.NewOrderToCash(7, 0.3)
			rejected, entered := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events := gen.NextCase()
				if !events[1].ForwardReference {
					// In-order case: the referenced customer master record is
					// entered before the opportunity and order.
					custID := events[1].Ops[0].Value.(string)
					custKey, _ := entity.ParseKey(custID)
					if _, err := update(custKey, repro.Set("name", "known customer")); err != nil {
						b.Fatal(err)
					}
				}
				for _, ev := range events {
					_, err := update(ev.Key, ev.Ops...)
					if err != nil {
						rejected++
						continue
					}
					entered++
				}
			}
			b.StopTimer()
			if mode == "managed" && rejected != 0 {
				b.Fatalf("managed mode rejected %d out-of-order entries, want 0", rejected)
			}
			total := rejected + entered
			if total > 0 {
				b.ReportMetric(float64(rejected)/float64(total), "reject-rate")
			}
			b.ReportMetric(float64(k.WarningCount())/float64(b.N), "managed-warnings/op")
		})
	}
}

// --- E11: coarse logical locks vs per-entity locks (section 3.1) -------------

func BenchmarkE11LogicalLocks(b *testing.B) {
	for _, granularity := range []string{"coarse", "fine"} {
		b.Run(granularity, func(b *testing.B) {
			lt := newLockTable()
			zipf := workload.NewZipf(5, 256, 1.1)
			var conflicts atomic.Int64
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					item := zipf.Next()
					owner := fmt.Sprintf("w%d", seq.Add(1))
					// One coarse lock covers the whole plant; a fine one, one item.
					res := fmt.Sprintf("Inventory/item-%d", item)
					if granularity == "coarse" {
						res = "Inventory::plant-1"
					}
					if err := lt.acquire(owner, res, exclusive, 100*time.Millisecond); err != nil {
						conflicts.Add(1)
						continue
					}
					// Simulated deferred update protected by the lock.
					lt.release(owner, res)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(conflicts.Load())/float64(b.N), "timeouts/op")
		})
	}
}

// --- E12: online vs stop-the-world schema migration (section 3.1) -----------

// The stop-the-world row holds an exclusive coarse lock on the type's
// migration resource for the whole migration and backfills with a batch
// larger than the type, so it never yields; the live writer checks that lock
// before every write. Online, nothing takes it.
func BenchmarkE12OnlineMigration(b *testing.B) {
	const migrationLock = "Order::schema-migration"
	for _, strategy := range []string{"online", "stop-the-world"} {
		b.Run(strategy, func(b *testing.B) {
			k := mustKernel(b, repro.Options{Node: clock.NodeID("e12-" + strategy)})
			lt := newLockTable()
			const entities = 300
			for i := 0; i < entities; i++ {
				k.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i)}, repro.Set("status", "OPEN"))
			}
			// Live writers run during the migration; their blocked/failed
			// attempts are the availability cost.
			stop := make(chan struct{})
			var liveWrites, liveBlocked atomic.Int64
			go func() {
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					if lt.lockedByOther(fmt.Sprintf("live-%d", i), migrationLock, shared) {
						liveBlocked.Add(1)
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if _, err := k.Update(repro.Key{Type: "Order", ID: fmt.Sprintf("O%d", i%entities)}, repro.Set("status", "TOUCHED")); err != nil {
						liveBlocked.Add(1)
					} else {
						liveWrites.Add(1)
					}
					i++
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				field := fmt.Sprintf("channel_%s_%d", strategy, i)
				mig := migrate.Migration{
					Type:      "Order",
					AddFields: []repro.Field{{Name: field, Type: repro.String}},
					Backfill: func(st *repro.State) []repro.Op {
						return []repro.Op{repro.Set(field, "direct")}
					},
				}
				var err error
				if strategy == "online" {
					_, err = k.Migrate(mig, 32)
				} else if err = lt.acquire("migration", migrationLock, exclusive, 30*time.Second); err == nil {
					_, err = k.Migrate(mig, entities+1)
					lt.release("migration", migrationLock)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			b.ReportMetric(float64(liveWrites.Load())/float64(b.N), "live-writes/op")
			total := liveWrites.Load() + liveBlocked.Load()
			if total > 0 {
				b.ReportMetric(float64(liveBlocked.Load())/float64(total), "writer-blocked-ratio")
			}
		})
	}
}

// --- E20: WAL-shipped replication — the price of each ack mode -------------

// BenchmarkE20ReplicationModes prices the replication ack spectrum on the
// write path: the same sequential append stream against an unreplicated
// store (baseline), and against a primary shipping every commit to standbys
// over a simulated network with 2ms one-way link latency (a WAN-ish hop,
// chosen to dominate the simulator's timer granularity so the rows read as
// the latency model, not as sleep overhead), under each ack mode. Async
// should track the baseline (shipping is fire-and-forget); sync and quorum
// pay ~one round trip per commit regardless of standby count, because the
// per-standby lanes fan out concurrently and the commit blocks only on an
// ack barrier (E21 isolates that fan-out). The gap between the rows is the
// paper's consistency dial rendered in nanoseconds — what principle 2.1's
// "embrace inconsistency" buys when you take it.
func BenchmarkE20ReplicationModes(b *testing.B) {
	const linkLatency = 2 * time.Millisecond
	stamp := func(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "e20"} }
	for _, cfg := range []struct {
		name     string
		standbys int
		mode     replica.AckMode
	}{
		{"serial", 0, replica.AckAsync},
		{"async-2sb", 2, replica.AckAsync},
		{"sync-2sb", 2, replica.AckSync},
		{"quorum-3sb", 3, replica.AckQuorum},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := lsdb.Open(lsdb.Options{Node: "e20", Backend: storage.NewMemory(), Shards: 4})
			if err := db.RegisterType(workload.AccountType()); err != nil {
				b.Fatal(err)
			}
			var sh *replica.Shipper
			if cfg.standbys > 0 {
				net := netsim.New(netsim.Config{})
				defer net.Close()
				var ids []clock.NodeID
				for s := 0; s < cfg.standbys; s++ {
					id := clock.NodeID(fmt.Sprintf("e20-s%d", s))
					if _, err := replica.NewStandby(replica.StandbyOptions{
						Self: id, Net: net, Backends: []storage.Backend{storage.NewMemory()},
					}); err != nil {
						b.Fatal(err)
					}
					net.SetLinkFault("e20-p", id, netsim.LinkFault{ExtraLatency: linkLatency})
					net.SetLinkFault(id, "e20-p", netsim.LinkFault{ExtraLatency: linkLatency})
					ids = append(ids, id)
				}
				sh = replica.NewShipper(replica.ShipperOptions{
					Self: "e20-p", Standbys: ids, Mode: cfg.mode, Net: net,
					Source: func(_ int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
				})
				db.SetCommitSink(sh.Sink(0))
			}
			keys := make([]entity.Key, 8)
			for i := range keys {
				keys[i] = entity.Key{Type: "Account", ID: fmt.Sprintf("E20-%d", i)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := db.Append(keys[i%len(keys)], []entity.Op{entity.Delta("balance", 1)},
					stamp(int64(i+1)), "e20-p", fmt.Sprintf("e20-%d", i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if sh != nil {
				sh.Drain() // async lanes may still be delivering; settle before reading stats
				st := sh.Stats()
				if cfg.mode != replica.AckAsync && st.ShipFailures > 0 {
					b.Fatalf("%d ship failures on a healthy network", st.ShipFailures)
				}
				b.ReportMetric(float64(st.RecordsShipped)/float64(b.N), "shipped/op")
			}
		})
	}
}

// --- E21: parallel ship fan-out — sync and quorum at ~1 RTT ----------------

// BenchmarkE21ParallelFanout measures what fanning the per-standby ships out
// of the commit path buys: with 2ms one-way links (4ms RTT), a sync commit
// to 2 standbys and a quorum commit to 3 should each cost ~1 RTT — the lanes
// ship concurrently and the barrier releases at the slowest *needed* ack —
// where a serial walk would cost one RTT per standby (E20's pre-fan-out
// recording: 11.2ms for sync-2sb, 16.3ms for quorum-3sb). The one-slow row
// parks a 10ms link inside a quorum-of-3 set: the majority acks over fast
// links satisfy the barrier, so the slow standby prices at zero on the
// commit path (it trails behind in its own lane, healed by catch-up if its
// window overflows — reported as overflows/op).
func BenchmarkE21ParallelFanout(b *testing.B) {
	const linkLatency = 2 * time.Millisecond
	const slowLatency = 10 * time.Millisecond
	stamp := func(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "e21"} }
	for _, cfg := range []struct {
		name     string
		standbys int
		mode     replica.AckMode
		slow     int // standbys (from the front) behind a slow link
	}{
		{"sync-2sb", 2, replica.AckSync, 0},
		{"quorum-3sb", 3, replica.AckQuorum, 0},
		{"quorum-3sb-one-slow", 3, replica.AckQuorum, 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := lsdb.Open(lsdb.Options{Node: "e21", Backend: storage.NewMemory(), Shards: 4})
			if err := db.RegisterType(workload.AccountType()); err != nil {
				b.Fatal(err)
			}
			net := netsim.New(netsim.Config{})
			defer net.Close()
			var ids []clock.NodeID
			for s := 0; s < cfg.standbys; s++ {
				id := clock.NodeID(fmt.Sprintf("e21-s%d", s))
				if _, err := replica.NewStandby(replica.StandbyOptions{
					Self: id, Net: net, Backends: []storage.Backend{storage.NewMemory()},
				}); err != nil {
					b.Fatal(err)
				}
				lat := linkLatency
				if s < cfg.slow {
					lat = slowLatency
				}
				net.SetLinkFault("e21-p", id, netsim.LinkFault{ExtraLatency: lat})
				net.SetLinkFault(id, "e21-p", netsim.LinkFault{ExtraLatency: lat})
				ids = append(ids, id)
			}
			sh := replica.NewShipper(replica.ShipperOptions{
				Self: "e21-p", Standbys: ids, Mode: cfg.mode, Net: net,
				Source: func(_ int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
			})
			db.SetCommitSink(sh.Sink(0))
			key := entity.Key{Type: "Account", ID: "E21"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)},
					stamp(int64(i+1)), "e21-p", fmt.Sprintf("e21-%d", i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rtt := float64(2 * linkLatency)
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/rtt, "rtts/op")
			st := sh.Stats()
			if cfg.slow == 0 {
				sh.Drain()
				if st.ShipFailures > 0 {
					b.Fatalf("%d ship failures on a healthy network", st.ShipFailures)
				}
			}
			b.ReportMetric(float64(st.WindowOverflows)/float64(b.N), "overflows/op")
		})
	}
}

// --- E22: tiered storage — off-hot-path flushes, bounded recovery (PR 9) ----

// e22Backend opens the storage under dir: a bare WAL for the legacy layout,
// the WAL under the LSM tier for "tiered".
func e22Backend(b *testing.B, mode, dir string) storage.Backend {
	b.Helper()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if mode != "tiered" {
		return wal
	}
	store, err := lsm.Open(wal, lsm.Options{Dir: filepath.Join(dir, "sst"), CompactAfter: 100})
	if err != nil {
		b.Fatal(err)
	}
	return store
}

func e22Open(b *testing.B, mode, dir string) *lsdb.DB {
	b.Helper()
	db := lsdb.Open(lsdb.Options{Node: "e22", Backend: e22Backend(b, mode, dir)})
	e18Types(b, db)
	return db
}

// e22Snapshot is the legacy stop-the-world checkpoint, kept as E22's
// baseline: with every append excluded by barrier, the whole store is
// serialised to one file and fsynced, so an append that arrives meanwhile
// waits out the full disk write.
func e22Snapshot(db *lsdb.DB, barrier *sync.RWMutex, path string) error {
	barrier.Lock()
	defer barrier.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BenchmarkE22FlushStall measures per-append latency while a checkpoint of
// 64k records of history runs concurrently. The legacy baseline quiesces
// every writer for the full serialize+fsync of a snapshot (e22Snapshot), so
// an unlucky append stalls for the whole disk write; the tiered flush only
// briefly holds the shard locks to capture dirty pointers. Appends take the
// barrier's read side in both modes. ns/op is the append cost including any
// stall; p99-append-us and max-stall-ms are the tail and the worst single
// append.
func BenchmarkE22FlushStall(b *testing.B) {
	for _, mode := range []string{"legacy", "tiered"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			db := e22Open(b, mode, dir)
			defer db.Close()
			seedStorageBench(b, db, 65536)
			var barrier sync.RWMutex
			checkpoint := db.Checkpoint
			if mode == "legacy" {
				checkpoint = func() error { return e22Snapshot(db, &barrier, filepath.Join(dir, "snapshot")) }
			}
			done := make(chan error, 1)
			go func() { done <- checkpoint() }()
			// Give the checkpoint goroutine a head start so the timed appends
			// actually contend with it rather than finishing before it is
			// dispatched.
			time.Sleep(time.Millisecond)
			lat := metrics.NewHistogram()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				barrier.RLock()
				_, err := db.Append(repro.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%64)},
					[]repro.Op{repro.Delta("balance", 1)},
					clock.Timestamp{WallNanos: int64(10000 + i), Node: "e22"}, "e22", "")
				barrier.RUnlock()
				if err != nil {
					b.Fatal(err)
				}
				lat.Record(time.Since(t0))
			}
			b.StopTimer()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(lat.Quantile(0.99))/1e3, "p99-append-us")
			b.ReportMetric(float64(lat.Max())/1e6, "max-stall-ms")
		})
	}
}

// BenchmarkE22Recovery measures restart time as history grows. The legacy
// store replays its entire WAL, so recovery scales with total history; the
// tiered store loads replay pointers from the newest tables and replays only
// the short tail written after the last flush, so it stays flat.
func BenchmarkE22Recovery(b *testing.B) {
	for _, records := range []int{4096, 16384} {
		for _, mode := range []string{"legacy", "tiered"} {
			b.Run(fmt.Sprintf("records=%d/%s", records, mode), func(b *testing.B) {
				dir := b.TempDir()
				src := e22Open(b, mode, dir)
				seedStorageBench(b, src, records)
				if mode == "tiered" {
					if err := src.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				// A short unflushed tail rides on top in both modes.
				for i := 0; i < 256; i++ {
					if _, err := src.Append(repro.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%64)},
						[]repro.Op{repro.Delta("balance", 1)},
						clock.Timestamp{WallNanos: int64(records + i + 1), Node: "e22"}, "e22", ""); err != nil {
						b.Fatal(err)
					}
				}
				head := src.HeadLSN()
				if err := src.Close(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, err := lsdb.Recover(lsdb.Options{Node: "e22", Backend: e22Backend(b, mode, dir)},
						workload.AccountType(), workload.OrderType())
					if err != nil {
						b.Fatal(err)
					}
					if rec.HeadLSN() != head {
						b.Fatalf("recovered head %d, want %d", rec.HeadLSN(), head)
					}
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

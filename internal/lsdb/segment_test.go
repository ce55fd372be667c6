package lsdb

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/storage"
)

// The resident log (segment.go) keeps committed records encoded. These tests
// pin that every reader gets back exactly what was appended, that readers
// decode safely while appends and obsolete flips run, that a streaming walk
// decodes only what it returns, and that the log gives the collector next to
// nothing to scan.

// logModel is the round-trip test's reference: the records it appended, as
// the Go values it handed the store, and what it has done to them since.
type logModel struct {
	types    map[string]*entity.Type
	recs     map[entity.Key][]Record      // retained, LSN ascending
	archived map[entity.Key]*entity.State // what Compact summarised
}

func newLogModel(db *DB) *logModel {
	m := &logModel{types: map[string]*entity.Type{}, recs: map[entity.Key][]Record{}, archived: map[entity.Key]*entity.State{}}
	for _, name := range db.Types() {
		m.types[name], _ = db.TypeOf(name)
	}
	return m
}

// fold is the rollup of key's archived summary and the retained records
// include admits, obsolete ones excluded; found reports whether anything was
// folded in.
func (m *logModel) fold(key entity.Key, include func(Record) bool) (st *entity.State, found bool) {
	st = entity.NewState(key)
	if a := m.archived[key]; a != nil {
		st, found = a.Clone(), true
	}
	for _, rec := range m.recs[key] {
		if rec.Obsolete || !include(rec) {
			continue
		}
		next, _, err := entity.Apply(m.types[key.Type], st, rec.Ops, entity.Managed)
		if err != nil {
			continue
		}
		if rec.Tentative {
			next.Tentative = true
		}
		st, found = next, true
	}
	return st.Freeze(), found
}

func all(Record) bool { return true }

// log returns every retained record in LSN order.
func (m *logModel) log() []Record {
	var out []Record
	for _, recs := range m.recs {
		out = append(out, recs...)
	}
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.LSN, b.LSN) })
	return out
}

// compact mirrors DB.Compact.
func (m *logModel) compact(horizon uint64) {
	for key, recs := range m.recs {
		if len(recs) > 0 && recs[len(recs)-1].LSN <= horizon {
			m.archived[key], _ = m.fold(key, all)
			delete(m.recs, key)
		}
	}
}

// withTxn returns the retained records that carry a transaction id.
func (m *logModel) withTxn() []*Record {
	var out []*Record
	for key := range m.recs {
		for i := range m.recs[key] {
			if m.recs[key][i].TxnID != "" {
				out = append(out, &m.recs[key][i])
			}
		}
	}
	slices.SortFunc(out, func(a, b *Record) int { return cmp.Compare(a.LSN, b.LSN) })
	return out
}

func assertSameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d is\n%+v\nwant\n%+v", what, i, got[i], want[i])
		}
	}
}

func assertSameState(t *testing.T, what string, got, want *entity.State) {
	t.Helper()
	if got.Tentative != want.Tentative || got.Deleted != want.Deleted || len(got.Fields) != len(want.Fields) {
		t.Fatalf("%s: state %+v, want %+v", what, got, want)
	}
	for f, v := range want.Fields {
		if !reflect.DeepEqual(got.Fields[f], v) {
			t.Fatalf("%s: field %s = %#v, want %#v", what, f, got.Fields[f], v)
		}
	}
	if !slices.Equal(got.Collections(), want.Collections()) {
		t.Fatalf("%s: collections %v, want %v", what, got.Collections(), want.Collections())
	}
	for _, c := range want.Collections() {
		if !reflect.DeepEqual(got.Children(c), want.Children(c)) {
			t.Fatalf("%s: %s rows %+v, want %+v", what, c, got.Children(c), want.Children(c))
		}
	}
}

// dropCaches empties every materialised state, so the next read of each
// entity is a rollup decoded from the log.
func dropCaches(db *DB) {
	for _, s := range db.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			e.cache.drop()
		}
		s.mu.Unlock()
	}
}

// checkAgainstModel reads the store through every reader that decodes —
// RecordsAfter/RecordsAfterN, RecordsFor, History, AsOf, a hot read and a
// cache-miss rollup — and compares each with the model.
func checkAgainstModel(t *testing.T, r *rand.Rand, db *DB, m *logModel, stage string) {
	t.Helper()
	want := m.log()
	assertSameRecords(t, stage+": RecordsAfter(0)", db.RecordsAfter(0), want)
	for range 8 {
		after, limit := uint64(r.Intn(int(db.HeadLSN())+2)), r.Intn(9)
		tail := want[firstAbove(want, after):]
		if limit > 0 && len(tail) > limit {
			tail = tail[:limit]
		}
		assertSameRecords(t, fmt.Sprintf("%s: RecordsAfterN(%d, %d)", stage, after, limit), db.RecordsAfterN(after, limit), tail)
	}
	keys := map[entity.Key]bool{}
	for key := range m.recs {
		keys[key] = true
	}
	for key := range m.archived {
		keys[key] = true
	}
	for key := range keys {
		recs := m.recs[key]
		what := fmt.Sprintf("%s: %s", stage, key)
		assertSameRecords(t, what+" RecordsFor", db.RecordsFor(key), recs)

		h, err := db.History(key)
		if err != nil {
			t.Fatalf("%s History: %v", what, err)
		}
		if len(h.Versions) != len(recs) {
			t.Fatalf("%s History: %d versions, want %d", what, len(h.Versions), len(recs))
		}
		for i, v := range h.Versions {
			rec := recs[i]
			if !reflect.DeepEqual(v.Ops, rec.Ops) || v.TxnID != rec.TxnID || v.Stamp != rec.Stamp || v.Tentative != rec.Tentative || v.Obsolete != rec.Obsolete {
				t.Fatalf("%s History version %d: %+v, want record %+v", what, i, v, rec)
			}
			st, _ := m.fold(key, func(x Record) bool { return x.LSN <= rec.LSN })
			assertSameState(t, fmt.Sprintf("%s History version %d", what, i), v.State, st)
		}

		if len(recs) > 0 {
			ts := recs[r.Intn(len(recs))].Stamp
			st, found := m.fold(key, func(x Record) bool { return x.Stamp.Compare(ts) != clock.After })
			got, err := db.AsOf(key, ts)
			switch {
			case found && err == nil:
				assertSameState(t, what+" AsOf", got, st)
			case found || !errors.Is(err, ErrNotFound):
				t.Fatalf("%s AsOf: %v, model found %v", what, err, found)
			}
		}

		st, _ := m.fold(key, all)
		got, _, err := db.Current(key)
		if err != nil {
			t.Fatalf("%s Current: %v", what, err)
		}
		assertSameState(t, what+" Current", got, st)
	}
	dropCaches(db)
	for key := range keys {
		st, _ := m.fold(key, all)
		got, _, err := db.Current(key)
		if err != nil {
			t.Fatalf("%s: %s cache-miss Current: %v", stage, key, err)
		}
		assertSameState(t, fmt.Sprintf("%s: %s cache-miss Current", stage, key), got, st)
	}
}

// firstAbove returns the index of the first record above after.
func firstAbove(recs []Record, after uint64) int {
	i, _ := slices.BinarySearchFunc(recs, after+1, func(r Record, lsn uint64) int { return cmp.Compare(r.LSN, lsn) })
	return i
}

// driveRandomly applies steps random operations to db and the model: set,
// delta and child-row appends, tentative ones, obsolete marks, resubmitted
// ids and (with compact) compactions.
func driveRandomly(t *testing.T, r *rand.Rand, db *DB, m *logModel, seq *int, steps int, compact bool) {
	t.Helper()
	keys := []entity.Key{acct("a0"), acct("a1"), acct("a2"), acct("a3"),
		{Type: "Order", ID: "o0"}, {Type: "Order", ID: "o1"}, {Type: "Order", ID: "o2"}}
	for range steps {
		*seq++
		key := keys[r.Intn(len(keys))]
		switch p := r.Intn(100); {
		case p < 70:
			var ops []entity.Op
			switch {
			case key.Type == "Account" && p%2 == 0:
				ops = []entity.Op{entity.Set("owner", "owner-"+strconv.Itoa(r.Intn(50)))}
			case key.Type == "Account":
				ops = []entity.Op{entity.Delta("balance", float64(r.Intn(200)-50)/4)}
			case p%3 == 0:
				ops = []entity.Op{entity.InsertChild("lineitems", "L"+strconv.Itoa(*seq), entity.Fields{"product": "p" + strconv.Itoa(r.Intn(9)), "qty": int64(r.Intn(9))})}
			case p%3 == 1:
				ops = []entity.Op{entity.Set("status", "S"+strconv.Itoa(r.Intn(4))), entity.Delta("total", float64(r.Intn(100)))}
			default:
				ops = []entity.Op{entity.Delta("total", -1.5)}
			}
			txnID := "t" + strconv.Itoa(*seq)
			switch r.Intn(10) {
			case 0:
				txnID = "" // no id
			case 1:
				txnID = "c-" + txnID + "-x" // no number at the end: never above the mark
			}
			tentative := p < 20
			if tentative {
				txnID = "p" + strconv.Itoa(*seq)
			}
			var res AppendResult
			var err error
			if tentative {
				res, err = db.AppendTentative(key, ops, stamp(int64(*seq)), "n", txnID)
			} else {
				res, err = db.Append(key, ops, stamp(int64(*seq)), "n", txnID)
			}
			if err != nil {
				t.Fatalf("append %s to %s: %v", txnID, key, err)
			}
			m.recs[key] = append(m.recs[key], res.Record)
		case p < 82:
			if recs := m.withTxn(); len(recs) > 0 {
				rec := recs[r.Intn(len(recs))]
				if err := db.MarkObsolete(rec.Key, rec.TxnID); err != nil {
					t.Fatalf("MarkObsolete(%s, %s): %v", rec.Key, rec.TxnID, err)
				}
				rec.Obsolete = true
			}
		case p < 92:
			if recs := m.withTxn(); len(recs) > 0 {
				rec := recs[r.Intn(len(recs))]
				_, err := db.Append(rec.Key, []entity.Op{entity.Delta("total", 1)}, stamp(int64(*seq)), "n", rec.TxnID)
				if !errors.Is(err, ErrDuplicateTxn) {
					t.Fatalf("resubmitting %s to %s: %v, want ErrDuplicateTxn", rec.TxnID, rec.Key, err)
				}
			}
		case compact:
			horizon := uint64(r.Intn(int(db.HeadLSN()) + 1))
			db.Compact(horizon)
			m.compact(horizon)
		}
	}
}

// TestResidentLogRoundTrip drives randomized appends, tentative appends and
// obsolete marks, compactions and shipped records through a store whose
// segments seal every three records, and reads everything back against a
// reference fold of what the test appended.
func TestResidentLogRoundTrip(t *testing.T) {
	for _, group := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("group=%v/seed=%d", group, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				opts := Options{SegmentSize: 3, Shards: 4, GroupCommit: group, SnapshotEvery: 5}
				seq := 0

				// A source store's log, marks included, is shipped chunk by
				// chunk into a standby's received log, which is recovered
				// into the store under test before it takes writes of its
				// own.
				src := newTestDB(t, opts)
				m := newLogModel(src)
				driveRandomly(t, r, src, m, &seq, 120, false)
				checkAgainstModel(t, r, src, m, "source")
				received := storage.NewMemory()
				for shipped := src.RecordsAfter(0); len(shipped) > 0; {
					n := min(1+r.Intn(7), len(shipped))
					if err := received.AppendBatch(shipped[:n]); err != nil {
						t.Fatal(err)
					}
					shipped = shipped[n:]
				}
				recovered := opts
				recovered.Node, recovered.Backend = "test-node", received
				db, err := Recover(recovered, accountType(), orderType())
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, r, db, m, "shipped")

				for stage := range 4 {
					driveRandomly(t, r, db, m, &seq, 150, true)
					checkAgainstModel(t, r, db, m, fmt.Sprintf("stage %d", stage))
				}
				assertTxnIndexMatchesLog(t, db)

				// The bulk-load path rebuilds the same log.
				loaded := newTestDB(t, opts)
				for _, rec := range db.RecordsAfter(0) {
					if err := loaded.loadRecord(rec); err != nil {
						t.Fatal(err)
					}
				}
				assertSameRecords(t, "loaded", loaded.RecordsAfter(0), m.log())
				assertTxnIndexMatchesLog(t, loaded)
			})
		}
	}
}

// TestResidentLogConcurrentReadersAndFlips runs readers that decode — tails,
// histories, per-entity lists, as-of reads, cache-miss rollups — while
// writers append across segment seals, a flipper marks promises obsolete in
// place and a compactor rewrites segments. Run under -race (make
// ownership-race does) it checks that every write to segment bytes is
// ordered against every decode.
func TestResidentLogConcurrentReadersAndFlips(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			db := newTestDB(t, Options{SegmentSize: 8, Shards: 2, GroupCommit: group})
			keys := budgetKeys(16)
			const writers, perWriter = 4, 150
			promises := make(chan Record, writers*perWriter)
			var writing, background sync.WaitGroup
			var stop atomic.Bool
			for w := range writers {
				writing.Add(1)
				go func() {
					defer writing.Done()
					for i := range perWriter {
						key := keys[(w*perWriter+i)%len(keys)]
						ops := []entity.Op{entity.Delta("balance", 1)}
						if i%3 == 0 {
							res, err := db.AppendTentative(key, ops, stamp(int64(i)), "n", fmt.Sprintf("p-%d-%d", w, i))
							if err != nil {
								t.Error(err)
								return
							}
							promises <- res.Record
						} else if _, err := db.Append(key, ops, stamp(int64(i)), "n", fmt.Sprintf("n-txn-%d", w*perWriter+i)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			background.Add(1)
			go func() { // the flipper
				defer background.Done()
				for rec := range promises {
					if err := db.MarkObsolete(rec.Key, rec.TxnID); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
					}
				}
			}()
			background.Add(1)
			go func() { // the compactor
				defer background.Done()
				for !stop.Load() {
					db.Compact(db.HeadLSN() / 2)
					runtime.Gosched()
				}
			}()
			for reader := range 2 {
				background.Add(1)
				go func() {
					defer background.Done()
					r := rand.New(rand.NewSource(int64(reader)))
					for !stop.Load() {
						key := keys[r.Intn(len(keys))]
						tail := db.RecordsAfterN(uint64(r.Intn(int(db.HeadLSN())+1)), 32)
						for i := 1; i < len(tail); i++ {
							if tail[i].LSN <= tail[i-1].LSN {
								t.Errorf("tail out of order: %d after %d", tail[i].LSN, tail[i-1].LSN)
							}
						}
						for _, rec := range db.RecordsFor(key) {
							if rec.Key != key || len(rec.Ops) != 1 {
								t.Errorf("RecordsFor(%s) decoded %+v", key, rec)
							}
						}
						if _, err := db.History(key); err != nil && !errors.Is(err, ErrNotFound) {
							t.Error(err)
						}
						if _, err := db.AsOf(key, stamp(int64(r.Intn(perWriter)))); err != nil && !errors.Is(err, ErrNotFound) {
							t.Error(err)
						}
						if reader == 0 {
							dropCaches(db)
						}
						if _, _, err := db.Current(key); err != nil && !errors.Is(err, ErrNotFound) {
							t.Error(err)
						}
					}
				}()
			}
			writing.Wait()
			close(promises)
			stop.Store(true)
			background.Wait()

			// Every promise still retained was withdrawn in place, and the
			// incrementally maintained states equal rollups decoded afresh.
			hot := map[entity.Key]*entity.State{}
			for _, key := range keys {
				for _, rec := range db.RecordsFor(key) {
					if rec.Tentative != rec.Obsolete {
						t.Errorf("%s %s: tentative %v, obsolete %v", key, rec.TxnID, rec.Tentative, rec.Obsolete)
					}
				}
				if st, _, err := db.Current(key); err == nil {
					hot[key] = st
				}
			}
			dropCaches(db)
			for key, st := range hot {
				got, _, err := db.Current(key)
				if err != nil {
					t.Fatal(err)
				}
				assertSameState(t, key.String(), got, st)
			}
			assertTxnIndexMatchesLog(t, db)
		})
	}
}

// catchUpChunk is the shipper's streaming catch-up chunk (replica.Shipper
// asks for 513 records at a time).
const catchUpChunk = 513

// walkInChunks reads the whole log the way streaming catch-up does and
// returns the LSNs it got and how many chunks it took.
func walkInChunks(db *DB) (lsns []uint64, chunks int) {
	for after := uint64(0); ; chunks++ {
		recs := db.RecordsAfterN(after, catchUpChunk)
		if len(recs) == 0 {
			return lsns, chunks
		}
		for _, rec := range recs {
			lsns = append(lsns, rec.LSN)
		}
		after = recs[len(recs)-1].LSN
	}
}

// TestRecordsAfterNDecodesWhatItReturns pins the streaming catch-up fix: a
// chunk positions each shard by binary search and decodes only the records it
// returns, so a chunked walk of the log decodes it about once, not once per
// chunk.
func TestRecordsAfterNDecodesWhatItReturns(t *testing.T) {
	db := newTestDB(t, Options{SegmentSize: 64})
	const n = 5000
	keys := budgetKeys(97)
	for i := range n {
		if _, err := db.Append(keys[i%len(keys)], []entity.Op{entity.Delta("balance", 1)}, stamp(int64(i+1)), "n", ""); err != nil {
			t.Fatal(err)
		}
	}
	var decodes atomic.Uint64
	for _, s := range db.shards {
		s.decodes = &decodes
	}
	lsns, chunks := walkInChunks(db)
	if len(lsns) != n || lsns[0] != 1 || lsns[n-1] != n || !slices.IsSorted(lsns) {
		t.Fatalf("walk returned %d LSNs %d..%d (sorted %v), want 1..%d", len(lsns), lsns[0], lsns[len(lsns)-1], slices.IsSorted(lsns), n)
	}
	budget := uint64(n + len(db.shards)*chunks)
	t.Logf("a walk of %d records in %d chunks decoded %d (budget %d)", n, chunks, decodes.Load(), budget)
	if decodes.Load() > budget {
		t.Fatalf("a walk of %d records in %d chunks decoded %d, budget %d", n, chunks, decodes.Load(), budget)
	}
}

// BenchmarkRecordsAfterN times streaming catch-up over a 200k-record
// in-memory log: one chunk from LSN 0, and a whole walk in chunks.
func BenchmarkRecordsAfterN(b *testing.B) {
	db := newTestDB(b, Options{})
	const n = 200_000
	keys := budgetKeys(1024)
	ops := []entity.Op{entity.Delta("balance", 1)}
	for i := range n {
		if _, err := db.Append(keys[i%len(keys)], ops, stamp(int64(i+1)), "n", "n-txn-"+strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("chunk-from-0", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if got := len(db.RecordsAfterN(0, catchUpChunk)); got != catchUpChunk {
				b.Fatalf("chunk of %d records, want %d", got, catchUpChunk)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if lsns, _ := walkInChunks(db); len(lsns) != n {
				b.Fatalf("walk returned %d records, want %d", len(lsns), n)
			}
		}
	})
}

// heapBytes collects and returns the scannable and the live heap.
func heapBytes(t *testing.T) (scan, live int64) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	for _, m := range s {
		if m.Value.Kind() != metrics.KindUint64 {
			t.Skipf("runtime/metrics has no %s", m.Name)
		}
	}
	return int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64())
}

// Per retained record budgets of TestResidentLogIsNoscan. As Go values the
// log cost 283 scannable of 317 live bytes a record.
const (
	residentScanBudget = 16.0
	residentLiveBudget = 120.0
)

// TestResidentLogIsNoscan is the gate on what the collector sees: on a store
// warmed with 50k entities, 200k more single-delta records may add at most
// residentScanBudget scannable and residentLiveBudget live heap bytes each.
func TestResidentLogIsNoscan(t *testing.T) {
	const entities, records = 50_000, 200_000
	db := newTestDB(t, Options{})
	keys := make([]entity.Key, entities)
	for i := range keys {
		keys[i] = acct(fmt.Sprintf("a%06d", i))
	}
	seq := 0
	appendTo := func(key entity.Key) {
		seq++
		// Ops and id built per append, as a caller builds them.
		ops := []entity.Op{entity.Delta("balance", 1)}
		if _, err := db.Append(key, ops, stamp(int64(seq)), "n", "n-txn-"+strconv.Itoa(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		appendTo(key)
	}
	scan0, live0 := heapBytes(t)
	for i := range records {
		appendTo(keys[i%entities])
	}
	scan1, live1 := heapBytes(t)
	runtime.KeepAlive(db)
	scan, live := float64(scan1-scan0)/records, float64(live1-live0)/records
	t.Logf("a retained record adds %.1f scannable and %.1f live heap bytes", scan, live)
	if scan > residentScanBudget || live > residentLiveBudget {
		t.Fatalf("a retained record adds %.1f scannable and %.1f live heap bytes, budget %.0f and %.0f", scan, live, residentScanBudget, residentLiveBudget)
	}
}

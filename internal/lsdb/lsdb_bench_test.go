package lsdb

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// buildBenchDB fills a store with n records spread over several entities,
// including child-row traffic so persisted operations exercise every field.
func buildBenchDB(b *testing.B, n int) *DB {
	b.Helper()
	db := Open(Options{Node: "bench", Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterType(orderType()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var err error
		if i%4 == 0 {
			key := entity.Key{Type: "Order", ID: fmt.Sprintf("O%d", i%16)}
			_, err = db.Append(key, []entity.Op{
				entity.InsertChild("lineitems", fmt.Sprintf("L%d", i), entity.Fields{"product": "widget", "qty": i % 7}),
			}, stamp(int64(i+1)), "bench", fmt.Sprintf("t%d", i))
		} else {
			key := entity.Key{Type: "Account", ID: fmt.Sprintf("A%d", i%32)}
			_, err = db.Append(key, []entity.Op{entity.Delta("balance", float64(i))}, stamp(int64(i+1)), "bench", fmt.Sprintf("t%d", i))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkSaveLoadRoundTrip measures the persistence path the bufio
// buffering and pre-sized record merge speed up: Save streams every record
// out, Load replays the stream into a fresh store.
func BenchmarkSaveLoadRoundTrip(b *testing.B) {
	const records = 4096
	src := buildBenchDB(b, records)
	b.Run("save", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst := Open(Options{Node: "bench", Shards: 4})
			if err := dst.RegisterType(accountType()); err != nil {
				b.Fatal(err)
			}
			if err := dst.RegisterType(orderType()); err != nil {
				b.Fatal(err)
			}
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
			if dst.Len() != records {
				b.Fatalf("loaded %d records, want %d", dst.Len(), records)
			}
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var rt bytes.Buffer
			if err := src.Save(&rt); err != nil {
				b.Fatal(err)
			}
			dst := Open(Options{Node: "bench", Shards: 4})
			dst.RegisterType(accountType())
			dst.RegisterType(orderType())
			if err := dst.Load(&rt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardTiered is a tiered backend that keeps nothing: the flush capture
// runs in full and the table write costs nothing, so BenchmarkFlushCapture
// times the store's side of a flush alone.
type discardTiered struct {
	*storage.Memory
	entries int
}

func (d *discardTiered) SealWAL() (uint64, error) { return 0, nil }
func (d *discardTiered) FlushTable(entries []storage.WALRecord, _, _ uint64) error {
	d.entries += len(entries)
	return nil
}
func (d *discardTiered) LookupSummary(entity.Key) (*storage.WALRecord, error) { return nil, nil }
func (d *discardTiered) TieredStats() storage.TieredStats                     { return storage.TieredStats{} }
func (d *discardTiered) SetTxnFloor(uint64)                                   {}
func (d *discardTiered) TxnFloor() uint64                                     { return 0 }

// BenchmarkFlushCapture measures one flush pass over 16 384 dirty entities
// spread across 16 shards — seal, per-key capture under the shard locks, and
// whatever it takes to hand the table writer key-ordered input — against a
// backend that discards the table.
func BenchmarkFlushCapture(b *testing.B) {
	const keys = 16384
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		backend := &discardTiered{Memory: storage.NewMemory()}
		db := Open(Options{Node: "bench", Shards: 16, Backend: backend, FlushBytes: -1})
		if err := db.RegisterType(accountType()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			key := entity.Key{Type: "Account", ID: fmt.Sprintf("acct-%d", k)}
			if _, err := db.Append(key, []entity.Op{entity.Delta("balance", float64(k))}, stamp(int64(k+1)), "bench", ""); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := db.flush.FlushNow(); err != nil {
			b.Fatal(err)
		}
		if backend.entries != keys {
			b.Fatalf("flush captured %d entries, want %d", backend.entries, keys)
		}
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/entity"
)

// benchFrame is the size of one benchmark append on disk, header included:
// about what a soupsd update of a few fields frames to.
const benchFrame = 250

// benchRecord returns a record whose frame is exactly benchFrame bytes.
func benchRecord(tb testing.TB) WALRecord {
	tb.Helper()
	rec := appendRec(1, "bench")
	for pad := 0; pad < benchFrame; pad++ {
		rec.Ops[0] = entity.Delta("balance", 1).Described(fmt.Sprintf("%*s", pad, ""))
		frame, err := appendFrame(nil, &rec)
		if err != nil {
			tb.Fatal(err)
		}
		if len(frame) == benchFrame {
			return rec
		}
	}
	tb.Fatalf("no padding makes a %d-byte frame", benchFrame)
	return rec
}

// BenchmarkWALAppendSync is the log force as a component: SyncAlways WALs in
// sibling directories, one appender each, every append one benchFrame-byte
// record and one force. One WAL is what a force costs alone; two and four are
// what it costs while other units' forces (soupsd runs four) contend for the
// same filesystem. ns/op is wall time per append over all WALs; syncs/s is
// its inverse, the number the ack rate of a durable node is capped by.
func BenchmarkWALAppendSync(b *testing.B) {
	rec := benchRecord(b)
	for _, wals := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("wals=%d", wals), func(b *testing.B) {
			root := b.TempDir()
			open := make([]*WAL, wals)
			for i := range open {
				w, err := OpenWAL(WALOptions{Dir: filepath.Join(root, fmt.Sprint("unit", i)), Sync: SyncAlways})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				// Open the active segment outside the timed region.
				if err := w.AppendBatch([]WALRecord{rec}); err != nil {
					b.Fatal(err)
				}
				open[i] = w
			}
			b.SetBytes(benchFrame)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, w := range open {
				n := b.N / wals
				if i < b.N%wals {
					n++
				}
				wg.Add(1)
				go func(w *WAL, n int) {
					defer wg.Done()
					batch := []WALRecord{rec}
					for ; n > 0; n-- {
						if err := w.AppendBatch(batch); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "syncs/s")
		})
	}
}

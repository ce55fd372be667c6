package lsdb

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// The WAL's bytes are frozen: testdata/golden-wal holds the segments an
// earlier build wrote for writeGoldenWAL's commits — every op kind, nested
// and extreme values, a tentative append withdrawn by a mark, a compaction
// mark, and enough appends to rotate segments. This build must write the
// same commits to the same bytes. -update-golden-wal rewrites them from this
// build, for a deliberate format change only.
var updateGoldenWAL = flag.Bool("update-golden-wal", false, "rewrite testdata/golden-wal from this build")

const goldenWALDir = "testdata/golden-wal"

// writeGoldenWAL commits the golden history through a store on a WAL in dir
// and closes it, which trims every segment to its frames.
func writeGoldenWAL(t *testing.T, dir string) {
	t.Helper()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, Sync: storage.SyncOS, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	db := newTestDB(t, Options{Backend: wal, Validation: entity.Managed, Shards: 4})
	n := int64(0)
	commit := func(key entity.Key, tentative bool, ops ...entity.Op) {
		t.Helper()
		n++
		txn := fmt.Sprintf("golden-txn-%d", n)
		var err error
		if tentative {
			_, err = db.AppendTentative(key, ops, stamp(1_000_000*n), "origin", txn)
		} else {
			_, err = db.Append(key, ops, stamp(1_000_000*n), "origin", txn)
		}
		if err != nil {
			t.Fatalf("commit %d: %v", n, err)
		}
	}
	acct := func(id string) entity.Key { return entity.Key{Type: "Account", ID: id} }
	order := entity.Key{Type: "Order", ID: "O-1"}
	commit(acct("A-1"), false, entity.Set("owner", "alice"), entity.Delta("balance", 100))
	commit(acct("A-1"), false, entity.Delta("balance", -0.25).Described("fee"))
	commit(order, false, entity.Set("status", "OPEN"), entity.Set("total", 99.5),
		entity.InsertChild("lineitems", "L-1", entity.Fields{"product": "widget", "qty": int64(2)}),
		entity.InsertChild("lineitems", "L-2", entity.Fields{"product": "gadget", "qty": int64(1)}))
	commit(order, false, entity.SetChildField("lineitems", "L-1", "qty", int64(3)),
		entity.DeltaChildField("lineitems", "L-2", "qty", 4), entity.DeleteChild("lineitems", "L-2"))
	commit(acct("A-2"), false, entity.Set("meta", map[string]interface{}{
		"list":  []interface{}{int64(math.MinInt64), uint64(math.MaxUint64), 1.5, "x", true, false, nil},
		"inner": map[string]interface{}{"k": "v", "n": int64(-7)},
		"ratio": math.Inf(-1),
		"empty": "",
	}), entity.Set("owner", strings.Repeat("ü", 40)))
	commit(acct("A-3"), true, entity.Delta("balance", -5))
	if err := db.MarkObsolete(acct("A-3"), "golden-txn-6"); err != nil {
		t.Fatal(err)
	}
	commit(acct("A-4"), true, entity.Delta("balance", 8))
	commit(acct("A-4"), false, entity.Confirm())
	commit(order, false, entity.Delete())
	for i := 0; i < 40; i++ {
		commit(acct(fmt.Sprintf("A-%d", 10+i%7)), false, entity.Delta("balance", float64(i)), entity.Set("owner", fmt.Sprintf("owner-%d", i)))
	}
	db.Compact(db.HeadLSN() - 10)
	commit(acct("A-1"), false, entity.Delta("balance", 1))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// walFiles maps every segment file in dir to its content.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

func TestGoldenWALWritesIdentically(t *testing.T) {
	dir := t.TempDir()
	writeGoldenWAL(t, dir)
	got := walFiles(t, dir)
	if *updateGoldenWAL {
		os.RemoveAll(goldenWALDir)
		if err := os.MkdirAll(goldenWALDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenWALDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := walFiles(t, goldenWALDir)
	sorted := func(m map[string][]byte) []string {
		var out []string
		for name := range m {
			out = append(out, name)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(sorted(got), sorted(want)) {
		t.Fatalf("segments: got %v, golden %v", sorted(got), sorted(want))
	}
	if len(want) < 2 {
		t.Fatalf("the golden history fills %d segment(s); it must rotate", len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s: %d bytes differ from the golden %d", name, len(got[name]), len(b))
		}
	}
}

package lsdb

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apology"
	"repro/internal/clock"
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
// and closes it, which trims every segment to its frames. It returns what the
// store showed of every key it wrote just before the close.
func writeGoldenWAL(t *testing.T, dir string) map[entity.Key]goldenView {
	t.Helper()
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, Sync: storage.SyncOS, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	db := newTestDB(t, Options{Backend: wal, Validation: entity.Managed, Shards: 4})
	n := int64(0)
	var keys []entity.Key
	commit := func(key entity.Key, tentative bool, ops ...entity.Op) {
		t.Helper()
		if !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
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
	views := goldenViews(t, db, keys)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return views
}

// goldenView is what a store shows of one key: Exists, Current (state, head
// LSN, error), Promises and History, in forms reflect.DeepEqual compares.
type goldenView struct {
	Exists  bool
	Head    uint64
	Err     string
	State   stateView
	Pending []apology.Promise
	History []versionView
}

type stateView struct {
	Fields             entity.Fields
	Rows               map[string][]entity.Child
	Deleted, Tentative bool
}

type versionView struct {
	Seq                 uint64
	Ops                 []entity.Op
	State               stateView
	Stamp               clock.Timestamp
	Tentative, Obsolete bool
	Origin              clock.NodeID
	TxnID               string
}

func viewState(st *entity.State) stateView {
	if st == nil {
		return stateView{}
	}
	v := stateView{Fields: st.Fields, Rows: map[string][]entity.Child{}, Deleted: st.Deleted, Tentative: st.Tentative}
	for _, col := range st.Collections() {
		v.Rows[col] = st.Children(col)
	}
	return v
}

func goldenViews(t *testing.T, db *DB, keys []entity.Key) map[entity.Key]goldenView {
	t.Helper()
	out := map[entity.Key]goldenView{}
	for _, key := range keys {
		st, head, err := db.Current(key)
		v := goldenView{Exists: db.Exists(key), Head: head, State: viewState(st), Pending: db.Promises(key)}
		if err != nil {
			v.Err = err.Error()
		}
		h, err := db.History(key)
		if err != nil {
			t.Fatalf("History(%s): %v", key, err)
		}
		for _, ver := range h.Versions {
			v.History = append(v.History, versionView{Seq: ver.Seq, Ops: ver.Ops, State: viewState(ver.State), Stamp: ver.Stamp,
				Tentative: ver.Tentative, Obsolete: ver.Obsolete, Origin: ver.Origin, TxnID: ver.TxnID})
		}
		out[key] = v
	}
	return out
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

// The read side of the frozen bytes: recovering the golden segments, whose
// obsolescence mark and compaction mark only an earlier build's write path
// produced, shows every key exactly as the store that wrote them did before
// it closed — Exists, Current, Promises and History alike. The segments are
// read from a copy; the golden files stay as they are.
func TestGoldenWALRecoversWriterViews(t *testing.T) {
	want := writeGoldenWAL(t, t.TempDir())
	dir := t.TempDir()
	for name, b := range walFiles(t, goldenWALDir) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir, Sync: storage.SyncOS, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[storage.RecordKind]int{}
	if _, err := wal.Replay(func(rec storage.WALRecord) error {
		kinds[rec.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds[storage.KindObsolete] != 1 || kinds[storage.KindCompact] != 1 {
		t.Fatalf("golden log kinds = %v, want one obsolescence mark and one compaction mark", kinds)
	}
	db, err := Recover(Options{Node: "test-node", Backend: wal, Validation: entity.Managed, Shards: 4}, accountType(), orderType())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer db.Close()
	keys := slices.Collect(maps.Keys(want))
	got := goldenViews(t, db, keys)
	for _, key := range keys {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Errorf("%s after recovery:\n got %+v\nwant %+v", key, got[key], want[key])
		}
	}
	if st, _, err := db.Current(entity.Key{Type: "Account", ID: "A-3"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("A-3, whose one record the mark withdrew: %v, %v; want ErrNotFound", st, err)
	}
}

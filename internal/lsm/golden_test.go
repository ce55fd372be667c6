package lsm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
)

// The table format is frozen: testdata/golden holds the table directory an
// earlier build of this package wrote from writeGoldenStore's input — a
// level-1 table merged from two overlapping flushes, a level-0 table beside
// it, their bloom sidecars and the manifest. This build must read those
// files and write the same input to the same bytes. -update-golden rewrites
// them from this build, for a deliberate format change only.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this build")

const goldenDir = "testdata/golden"

// writeGoldenStore builds the golden store under dir/sst: two flushes over
// overlapping Account ranges (settled detail, live and obsolete tentative
// detail, a detail-only key) merged into level 1, then a third flush over
// more types left at level 0.
func writeGoldenStore(t *testing.T, dir string) {
	t.Helper()
	s := openTestStore(t, dir, Options{CompactAfter: 100, CompactThrottle: -1})
	acct := func(i int) entity.Key { return testKey(i) }
	var first []storage.WALRecord
	for i := 0; i < 40; i++ {
		first = append(first, summaryRec(acct(i), uint64(10*i+1), float64(i)))
		if i%4 == 0 {
			first = append(first, detailRec(acct(i), uint64(10*i+2), true, false))
		}
	}
	if err := s.FlushTable(first, 400, 0); err != nil {
		t.Fatal(err)
	}
	var second []storage.WALRecord
	for i := 20; i < 60; i++ {
		second = append(second, summaryRec(acct(i), uint64(1000+10*i+1), float64(100+i)))
		if i%3 == 0 {
			second = append(second, detailRec(acct(i), uint64(1000+10*i+2), true, i%2 == 0))
		}
	}
	if err := s.FlushTable(second, 1600, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	var third []storage.WALRecord
	for i := 50; i < 70; i++ {
		third = append(third, summaryRec(acct(i), uint64(2000+10*i+1), float64(200+i)))
	}
	for i := 0; i < 5; i++ {
		third = append(third, summaryRec(entity.Key{Type: "Book", ID: testKey(i).ID}, uint64(3000+i), float64(i)))
	}
	third = append(third, detailRec(entity.Key{Type: "Order", ID: "o1"}, 3100, true, false))
	if err := s.FlushTable(third, 3100, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// readDirFiles maps every file name in dir to its content.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestGoldenTablesWriteIdentically(t *testing.T) {
	dir := t.TempDir()
	writeGoldenStore(t, dir)
	got := readDirFiles(t, filepath.Join(dir, "sst"))
	if *updateGolden {
		os.RemoveAll(goldenDir)
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := readDirFiles(t, goldenDir)
	names := func(m map[string][]byte) []string {
		var out []string
		for n := range m {
			out = append(out, n)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(names(got), names(want)) {
		t.Fatalf("files: got %v, golden %v", names(got), names(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s: %d bytes differ from the golden %d", name, len(got[name]), len(b))
		}
	}
}

func TestGoldenTablesOpenAndAnswer(t *testing.T) {
	dir := t.TempDir()
	sst := filepath.Join(dir, "sst")
	if err := os.MkdirAll(sst, 0o755); err != nil {
		t.Fatal(err)
	}
	golden := readDirFiles(t, goldenDir)
	for name, b := range golden {
		if err := os.WriteFile(filepath.Join(sst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTestStore(t, dir, Options{CompactAfter: 100, CompactThrottle: -1})
	defer s.Close()
	if st := s.TieredStats(); st.Tables != 2 {
		t.Fatalf("tables: %+v", st)
	}
	// Every key of every table passes that table's golden sidecar, loaded
	// as written: the filter's hash is unchanged.
	for _, tb := range s.tables {
		bl, err := loadBloom(filepath.Join(sst, bloomName(tb.meta.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.scan(func(e indexEntry, _ storage.WALRecord) error {
			if !bl.mayContain(keyHash(compositeKey(e.key))) {
				t.Errorf("%s: sidecar refuses %v", tb.meta.Name, e.key)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Lookups answer the newest summary: level 0 over level 1, and the
	// second flush over the first inside the merged run.
	for i, want := range map[int]float64{0: 0, 19: 19, 20: 120, 49: 149, 50: 250, 69: 269} {
		rec, err := s.LookupSummary(testKey(i))
		if err != nil || rec == nil {
			t.Fatalf("key %d: %v, %v", i, rec, err)
		}
		if got := rec.Summary.Fields["balance"]; got != want {
			t.Errorf("key %d: balance %v, want %v", i, got, want)
		}
	}
	if rec, err := s.LookupSummary(entity.Key{Type: "Book", ID: testKey(3).ID}); err != nil || rec == nil || rec.Horizon != 3003 {
		t.Errorf("Book 3: %v, %v", rec, err)
	}
	if rec, err := s.LookupSummary(testKey(70)); err != nil || rec != nil {
		t.Errorf("absent key: %v, %v", rec, err)
	}
	// Recovery replays the detail-only key in full.
	var orders int
	if _, err := s.Replay(func(r storage.WALRecord) error {
		if r.Key.Type == "Order" && r.Kind == storage.KindAppend {
			orders++
		}
		return nil
	}); err != nil || orders != 1 {
		t.Errorf("replay: %d Order records, %v", orders, err)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/storage"
	"repro/internal/workload"
)

// kernelStates captures every entity state the kernel serves, projected to
// the observable surface (fields, flags, child rows), keyed by entity key.
func kernelStates(t *testing.T, k *Kernel) map[string]map[string]interface{} {
	t.Helper()
	out := map[string]map[string]interface{}{}
	for _, typ := range workload.Types() {
		err := k.Query(typ.Name, func(st *entity.State) bool {
			snap := map[string]interface{}{
				"fields":    st.Fields,
				"tentative": st.Tentative,
				"deleted":   st.Deleted,
			}
			for _, col := range st.Collections() {
				snap["col:"+col] = st.Children(col)
			}
			out[st.Key.String()] = snap
			return true
		})
		if err != nil {
			t.Fatalf("Query(%s): %v", typ.Name, err)
		}
	}
	return out
}

func assertSameKernelStates(t *testing.T, want, got map[string]map[string]interface{}) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("entity counts differ: %d vs %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("entity %s missing after restart", key)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("entity %s differs:\nwant %v\n got %v", key, w, g)
		}
	}
}

// populate drives a representative mix through the kernel: plain updates,
// child rows, concurrent writers, a kept and a broken promise, and queued
// process steps.
func populate(t *testing.T, k *Kernel) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := accountKey(fmt.Sprintf("acct-%d", i%5))
				if _, err := k.Update(key, entity.Delta("balance", 1)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := k.Update(orderKey("O1"),
		entity.Set("status", "OPEN"),
		entity.InsertChild("lineitems", "L1", entity.Fields{"product": "Inventory/widget", "qty": int64(3), "price": 9.5}),
		entity.InsertChild("lineitems", "L2", entity.Fields{"product": "Inventory/gadget", "qty": int64(1), "price": 20.0}),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Update(orderKey("O1"), entity.DeleteChild("lineitems", "L2")); err != nil {
		t.Fatal(err)
	}
	kept, err := k.UpdateTentative(invKey("widget"), "partner-a", "reservation", 5, entity.Delta("reserved", 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.KeepPromise(kept.ID); err != nil {
		t.Fatal(err)
	}
	broken, err := k.UpdateTentative(invKey("widget"), "partner-b", "reservation", 7, entity.Delta("reserved", 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.BreakPromise(broken.ID, "oversold", "coupon"); err != nil {
		t.Fatal(err)
	}
	k.Drain()
}

// TestDurableKernelRestart is the end-to-end acceptance check at the kernel
// layer: a durable node populated by concurrent writers stops, reopens from its
// data directory alone, and serves identical states; new writes continue the
// log.
func TestDurableKernelRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Node: "dur", Units: 3,
		DataDir: dir, Fsync: storage.SyncAlways, CheckpointEvery: 50,
	}
	k := newKernel(t, Options{Node: opts.Node, Units: opts.Units,
		DataDir: dir, Fsync: storage.SyncAlways, CheckpointEvery: 50})
	populate(t, k)
	want := kernelStates(t, k)
	if len(want) == 0 {
		t.Fatal("populate produced no entities")
	}
	k.Close()

	k2 := newKernel(t, opts)
	assertSameKernelStates(t, want, kernelStates(t, k2))
	// The log continues: a fresh write lands and survives another restart.
	// Asserting the balance actually moved matters — the restarted node must
	// resume its transaction-id sequence past the recovered log, or the new
	// write wears a recycled id and is silently dropped as its own replay.
	before, err := k2.Read(accountKey("acct-0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.Update(accountKey("acct-0"), entity.Delta("balance", 100)); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	after, err := k2.Read(accountKey("acct-0"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Float("balance"), before.Float("balance")+100; got != want {
		t.Fatalf("balance after restart write = %v, want %v (recycled txn id dropped the write)", got, want)
	}
	want2 := kernelStates(t, k2)
	k2.Close()
	k3 := newKernel(t, opts)
	assertSameKernelStates(t, want2, kernelStates(t, k3))
}

// TestKernelExportImportRoundTrip covers the backup/restore codec end to
// end, including the unit-count guard.
func TestKernelExportImportRoundTrip(t *testing.T) {
	src := newKernel(t, Options{Node: "src", Units: 3})
	populate(t, src)
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatalf("Export: %v", err)
	}

	wrong := newKernel(t, Options{Node: "wrong", Units: 2})
	if err := wrong.Import(bytes.NewReader(backup.Bytes())); err == nil || !strings.Contains(err.Error(), "unit counts must match") {
		t.Fatalf("unit-count mismatch not rejected: %v", err)
	}

	dst := newKernel(t, Options{Node: "dst", Units: 3})
	if err := dst.Import(bytes.NewReader(backup.Bytes())); err != nil {
		t.Fatalf("Import: %v", err)
	}
	assertSameKernelStates(t, kernelStates(t, src), kernelStates(t, dst))
}

// An import over a durable backend that is not tiered — a plain WAL, the
// backend PromoteStandby hands a kernel — is on disk when Import returns: the
// cut's summaries and records are logged as they install, so a restart over
// the reopened WAL reads what the import installed.
func TestImportOverPlainWALSurvivesRestart(t *testing.T) {
	src := newKernel(t, Options{Node: "src", Units: 1})
	populate(t, src)
	if n := src.Compact(); n == 0 {
		t.Fatal("Compact summarised nothing")
	}
	if _, err := src.Update(accountKey("a"), entity.Delta("balance", 5)); err != nil {
		t.Fatal(err)
	}
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *Kernel {
		t.Helper()
		wal, err := storage.OpenWAL(storage.WALOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return newKernel(t, Options{Node: "dst", Units: 1, UnitBackends: []storage.Backend{wal}})
	}
	dst := open()
	if err := dst.Import(&backup); err != nil {
		t.Fatalf("Import: %v", err)
	}
	want := kernelStates(t, src)
	assertSameKernelStates(t, want, kernelStates(t, dst))
	dst.Close()
	dst = open()
	if st, err := dst.Read(accountKey("a")); err != nil || st.Float("balance") != 5 {
		t.Fatalf("imported account after a restart: %v (%v), want balance 5", st, err)
	}
	assertSameKernelStates(t, want, kernelStates(t, dst))
}

// TestImportResumesTxnIDs: a restore brings records whose transaction ids
// the new node's managers would mint next; they must move past them, or the
// first write after the import wears an imported id and is skipped as its
// own replay.
func TestImportResumesTxnIDs(t *testing.T) {
	key := accountKey("a")
	src := newKernel(t, Options{Node: "p", Units: 1})
	for range 3 {
		if _, err := src.Update(key, entity.Delta("balance", 1)); err != nil {
			t.Fatal(err)
		}
	}
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatal(err)
	}
	dst := newKernel(t, Options{Node: "p", Units: 1})
	if err := dst.Import(&backup); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Update(key, entity.Delta("balance", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnID != "p-u0-txn-4" {
		t.Errorf("the write after the import took txn %s, want p-u0-txn-4", res.TxnID)
	}
	if st, err := dst.Read(key); err != nil || st.Float("balance") != 4 {
		t.Fatalf("balance after the import and one more deposit: %v (%v), want 4", st.Float("balance"), err)
	}
}

// TestKernelExportImportWithCompactedHistory: archived summaries are not
// reconstructible from the record stream, so a backup taken after Compact
// must carry them explicitly — restoring must reproduce every compacted
// entity's state, down to the Go type of every field value.
func TestKernelExportImportWithCompactedHistory(t *testing.T) {
	src := newKernel(t, Options{Node: "src", Units: 2})
	populate(t, src)
	// Undeclared fields whose types a text codec blurs: a map shaped like a
	// tagged float, a nested entity.Fields, a uint64 above MaxInt64.
	if _, err := src.Update(accountKey("odd"),
		entity.Set("meta", map[string]interface{}{"$float": int64(3)}),
		entity.Set("nested", entity.Fields{"deep": entity.Fields{"n": int64(-7)}, "f": 2.0}),
		entity.Set("huge", uint64(math.MaxUint64)),
	); err != nil {
		t.Fatal(err)
	}
	if n := src.Compact(); n == 0 {
		t.Fatal("Compact summarised nothing")
	}
	want := kernelStates(t, src)
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatal(err)
	}

	dst := newKernel(t, Options{Node: "dst", Units: 2})
	if err := dst.Import(bytes.NewReader(backup.Bytes())); err != nil {
		t.Fatalf("Import: %v", err)
	}
	assertSameKernelStates(t, want, kernelStates(t, dst))

	// A truncated backup — cut between two frames or inside one, the
	// trailer alone or half the stream — must be refused, not silently
	// restored.
	raw := backup.Bytes()
	var ends []int // where each frame ends
	for off := 0; off < len(raw); {
		off += storage.FrameHeader + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	for _, cut := range []int{ends[len(ends)-2], len(raw) - 1, ends[1], len(raw) / 2} {
		trunc := newKernel(t, Options{Node: "trunc", Units: 2})
		if err := trunc.Import(bytes.NewReader(raw[:cut])); err == nil || !strings.Contains(err.Error(), "trailer") {
			t.Fatalf("backup cut at %d of %d not rejected as truncated: %v", cut, len(raw), err)
		}
	}
}

// TestImportRefusesDamagedBackups: one flipped byte anywhere in a backup is
// refused (every frame carries a CRC), and so is a version 1 (JSON) backup,
// by name.
func TestImportRefusesDamagedBackups(t *testing.T) {
	src := newKernel(t, Options{Node: "src", Units: 2})
	populate(t, src)
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatal(err)
	}
	raw := backup.Bytes()
	for i := 0; i < len(raw); i += max(1, len(raw)/40) {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x10
		dst := newKernel(t, Options{Node: "dst", Units: 2})
		if err := dst.Import(bytes.NewReader(bad)); err == nil {
			t.Fatalf("backup with byte %d of %d flipped was restored", i, len(raw))
		}
	}
	v1 := "{\"version\":1,\"units\":2}\n{\"lines\":0}\n"
	dst := newKernel(t, Options{Node: "dst", Units: 2})
	if err := dst.Import(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 backup not refused by name: %v", err)
	}
}

// TestDurableImportPersists: restoring into a durable node checkpoints the
// imported content, so it survives a restart without ever having gone
// through the write path.
func TestDurableImportPersists(t *testing.T) {
	src := newKernel(t, Options{Node: "src", Units: 2})
	populate(t, src)
	var backup bytes.Buffer
	if err := src.Export(&backup); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := Options{Node: "dur", Units: 2, DataDir: dir}
	dst := newKernel(t, opts)
	if err := dst.Import(bytes.NewReader(backup.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := kernelStates(t, dst)
	dst.Close()

	re := newKernel(t, opts)
	assertSameKernelStates(t, want, kernelStates(t, re))
}

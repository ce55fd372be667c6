package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/replica"
	"repro/internal/storage"
)

// shipBatch is one batch whose values a text codec would blur: an integral
// float in an undeclared field, a uint64 above MaxInt64, nested maps of both
// kinds — then history-rewrite marks, which ship like appends.
func shipBatch() replica.ShipBatch {
	stamp := func(n int64) clock.Timestamp { return clock.Timestamp{WallNanos: n, Node: "primary"} }
	return replica.ShipBatch{From: "primary", Unit: 0, Records: []lsdb.Record{
		{
			LSN: 1, Key: entity.Key{Type: "Account", ID: "A-1"}, Stamp: stamp(1), Origin: "primary", TxnID: "t1",
			Ops: []entity.Op{
				entity.Set("note", 2.0),
				entity.Set("huge", uint64(math.MaxUint64)),
				entity.Set("meta", map[string]interface{}{"$float": int64(3), "row": entity.Fields{"n": int64(-7)}}),
			},
		},
		{
			LSN: 2, Key: entity.Key{Type: "Account", ID: "A-1"}, Stamp: stamp(2), Origin: "primary", TxnID: "t2", Tentative: true,
			Ops: []entity.Op{entity.Delta("balance", -1.5).Described("hold")},
		},
		{Kind: storage.KindObsolete, Key: entity.Key{Type: "Account", ID: "A-1"}, TxnID: "t2"},
		{Kind: storage.KindCompact, Horizon: 1},
	}}
}

// TestShipLandsByteIdenticalInStandbyWAL: one batch through
// httpTransport.Ship and a standby's /replicate lands in the standby's WAL
// as exactly the frames the primary's encoder writes for it, and the
// standby's /catchup serves the batch back as the same records.
func TestShipLandsByteIdenticalInStandbyWAL(t *testing.T) {
	dir := t.TempDir()
	recv, err := openStandbyReceiver(dir, 1, storage.SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{standby: recv}
	addr, _ := startLoop(t, s.routes(), nil)
	base := "http://" + addr
	tr := &httpTransport{client: &http.Client{}, urls: map[clock.NodeID]string{"sb": base}}
	defer tr.client.CloseIdleConnections()
	batch := shipBatch()
	if err := tr.Ship("sb", batch, true, 5*time.Second); err != nil {
		t.Fatalf("Ship: %v", err)
	}

	resp, err := tr.client.Get(base + "/catchup?unit=0&after=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catchup: %d %s", resp.StatusCode, body)
	}
	sr := storage.NewStreamReader(bytes.NewReader(body))
	var more uint64
	if _, err := sr.Control(tagCatchup, &more); err != nil || more != 0 {
		t.Fatalf("catchup header: more=%d %v", more, err)
	}
	for _, want := range batch.Records {
		got, err := sr.Record()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catchup record:\n got %#v\nwant %#v", got, want)
		}
	}
	if _, err := sr.Record(); err != io.EOF {
		t.Fatalf("catchup reply runs past its chunk: %v", err)
	}

	if err := recv.close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range batch.Records {
		if want, err = storage.AppendFrame(want, &batch.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, "unit-0", "wal-0000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	const magic = len("SOUPWAL\x01")
	if got := seg[magic:]; !bytes.Equal(got, want) {
		t.Fatalf("standby WAL holds other bytes than the primary encoded:\n got %x\nwant %x", got, want)
	}
}

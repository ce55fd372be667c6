package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/replica"
	"repro/internal/storage"
)

// shipBatch is one batch whose values a text codec would blur: an integral
// float in an undeclared field, a uint64 above MaxInt64, nested maps of both
// kinds — then a promise and the settlement that breaks it.
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
		{
			LSN: 3, Key: entity.Key{Type: "Account", ID: "A-1"}, Stamp: stamp(3), Origin: "primary", TxnID: "t3",
			Ops: []entity.Op{entity.BreakPromise("t2", "no stock", "coupon")},
		},
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

// gatedTransport is a link a test can cut: while blocked every ship fails.
type gatedTransport struct {
	replica.Transport
	blocked atomic.Bool
}

func (g *gatedTransport) Ship(peer clock.NodeID, batch replica.ShipBatch, sync bool, timeout time.Duration) error {
	if g.blocked.Load() {
		return errors.New("link blocked")
	}
	return g.Transport.Ship(peer, batch, sync, timeout)
}

// The durable form of a withdrawal lost in flight, over the HTTP transport.
// A durable primary ships asynchronously to a standby soupsd. It makes a
// promise, the standby receives it, the link is cut, and the primary breaks
// the promise — the settlement's ship fails. Then the link heals, the
// missing tail is pulled from the primary's /catchup and pushed to the
// standby's /replicate, and /promote recovers the standby's WAL. The
// promoted node reads the pre-promise balance and has no pending promise.
func TestWithdrawalLostInFlightPromotesOverHTTP(t *testing.T) {
	sbDir := t.TempDir()
	recv, err := openStandbyReceiver(sbDir, 1, storage.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	standby := &server{standby: recv}
	sbAddr, _ := startLoop(t, standby.routes(), nil)
	defer func() {
		if k := standby.k(); k != nil {
			k.Close()
		}
	}()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	gate := &gatedTransport{Transport: &httpTransport{client: client, urls: map[clock.NodeID]string{"standby-0": "http://" + sbAddr}}}
	k, err := repro.Bootstrap(repro.Options{Node: "soupsd", Units: 1, DataDir: t.TempDir(), Replication: &repro.ReplicationOptions{
		Standbys: []clock.NodeID{"standby-0"}, Ack: replica.AckAsync, Transport: gate}}, repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	primary := &server{}
	primary.kernel.Store(k)
	pAddr, _ := startLoop(t, primary.routes(), nil)

	key := repro.Key{Type: "Account", ID: "A1"}
	if _, err := k.Update(key, repro.Set("balance", 5.0)); err != nil {
		t.Fatal(err)
	}
	p, err := k.UpdateTentative(key, "alice", "hold", 3, repro.Delta("balance", -3))
	if err != nil {
		t.Fatal(err)
	}
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	await("standby watermark 2", func() bool { return recv.sb.Watermark(0) == 2 })
	gate.blocked.Store(true)
	if _, err := k.BreakPromise(p.ID, "no stock", "coupon"); err != nil {
		t.Fatal(err)
	}
	await("the settlement's ship to fail", func() bool { return k.ReplicaStats().Ship.ShipFailures > 0 })
	gate.blocked.Store(false)
	if got := recv.sb.Watermark(0); got != 2 {
		t.Fatalf("standby watermark = %d before catch-up, want 2 (the settlement lost in flight)", got)
	}

	// Catch up: the primary's /catchup tail after the standby's watermark,
	// pushed to the standby's /replicate, chunk by chunk.
	for more := uint64(1); more != 0; {
		resp, err := client.Get(fmt.Sprintf("http://%s/catchup?unit=0&after=%d", pAddr, recv.sb.Watermark(0)))
		if err != nil {
			t.Fatal(err)
		}
		sr := storage.NewStreamReader(resp.Body)
		if _, err := sr.Control(tagCatchup, &more); err != nil {
			t.Fatalf("catchup header: %v", err)
		}
		batch := replica.ShipBatch{From: "soupsd", Unit: 0}
		for {
			rec, err := sr.Record()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			batch.Records = append(batch.Records, rec)
		}
		resp.Body.Close()
		if err := gate.Ship("standby-0", batch, true, 5*time.Second); err != nil {
			t.Fatalf("replicate: %v", err)
		}
	}
	if got := recv.sb.Watermark(0); got != 3 {
		t.Fatalf("standby watermark = %d after catch-up, want 3", got)
	}
	k.Close()

	// Promote: the standby's flags name its data directory and unit count.
	savedDir, savedUnits := *dataDir, *units
	defer func() { *dataDir, *units = savedDir, savedUnits }()
	*dataDir, *units = sbDir, 1
	resp, err := client.Post("http://"+sbAddr+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d %s", resp.StatusCode, body)
	}
	resp, err = client.Get("http://" + sbAddr + "/entities/Account/A1")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Fields    map[string]float64 `json:"fields"`
		Tentative bool               `json:"tentative"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || got.Fields["balance"] != 5 || got.Tentative {
		t.Fatalf("promoted A1 = %+v (%v), want balance 5, not tentative (the broken promise withdrawn)", got, err)
	}
	if pending := standby.k().Pending(); len(pending) != 0 {
		t.Fatalf("promoted node has pending promises %+v, want none", pending)
	}
}

// WAL-shipped replication over HTTP: a primary soupsd ships every commit
// cycle of every unit to standby soupsd processes; a standby appends the
// received stream into the same unit-N WAL layout a durable primary writes,
// so promotion is nothing special — close the receivers and run the
// ordinary recovery-based bootstrap over the data directory.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/lsdb"
	"repro/internal/replica"
	"repro/internal/storage"
)

var (
	role        = flag.String("role", "primary", "primary (serves data, ships its WAL) or standby (receives the stream; POST /promote to take over)")
	standbysCSV = flag.String("standbys", "", "comma-separated standby base URLs the primary ships every commit to")
	ackFlag     = flag.String("ack", "async", "replication ack mode: async, sync or quorum")
	shipTimeout = flag.Duration("ship-timeout", 500*time.Millisecond, "timeout per ship request")
	shipWindow  = flag.Int("ship-window", 0, "per-standby in-flight ship window (0 = library default 128); a full lane fails that ship instead of stalling the commit")
	catchupSize = flag.Int("catchup-chunk", 0, "appended records per catch-up chunk served and pulled (0 = library default 512)")
	persistMark = flag.Int("persist-watermark-every", 0, "standby role: persist the replication watermark every N batches per unit (0 = every batch)")
)

// The replication wire is a record stream (storage.StreamWriter) under one
// control frame: a /replicate body is a ship header then the batch's record
// frames, a /catchup reply a "more" flag then the chunk's record frames.
// Primary and standbys must run the same build.
const (
	tagShip    = 'S' // unit, then the sender's node id as the tail
	tagCatchup = 'M' // 1 when the log holds more records past this chunk
)

// httpTransport implements replica.Transport as POST {standby}/replicate.
// Asynchronous mode sends the same bounded request and merely ignores the
// verdict — a down standby costs at most the timeout, and the shipper's
// failure counter still ticks.
type httpTransport struct {
	client *http.Client
	urls   map[clock.NodeID]string
}

func (t *httpTransport) Ship(peer clock.NodeID, batch replica.ShipBatch, _ bool, timeout time.Duration) error {
	base, ok := t.urls[peer]
	if !ok {
		return fmt.Errorf("soupsd: unknown standby %s", peer)
	}
	body := storage.AppendControl(nil, tagShip, []byte(batch.From), uint64(batch.Unit))
	for i := range batch.Records {
		var err error
		if body, err = storage.AppendFrame(body, &batch.Records[i]); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/replicate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("soupsd: standby %s answered %s", peer, resp.Status)
	}
	return nil
}

// replicationFromFlags builds the kernel's replication options from -standbys
// and -ack; nil when replication is off.
func replicationFromFlags() (*repro.ReplicationOptions, error) {
	if *standbysCSV == "" {
		return nil, nil
	}
	mode, err := replica.ParseAckMode(*ackFlag)
	if err != nil {
		return nil, err
	}
	urls := map[clock.NodeID]string{}
	var ids []clock.NodeID
	for i, u := range strings.Split(*standbysCSV, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		id := clock.NodeID(fmt.Sprintf("standby-%d", i))
		ids = append(ids, id)
		urls[id] = strings.TrimRight(u, "/")
	}
	if len(ids) == 0 {
		return nil, nil
	}
	return &repro.ReplicationOptions{
		Self:         "soupsd",
		Standbys:     ids,
		Ack:          mode,
		Timeout:      *shipTimeout,
		Transport:    &httpTransport{client: &http.Client{}, urls: urls},
		Window:       *shipWindow,
		CatchupChunk: *catchupSize,
	}, nil
}

// standbyReceiver is the standby role's whole state: one WAL per unit, in the
// exact directory layout a durable primary uses, fed by /replicate.
type standbyReceiver struct {
	sb   *replica.Standby
	wals []*storage.WAL
}

func openStandbyReceiver(dataDir string, units int, sync storage.SyncMode) (*standbyReceiver, error) {
	if dataDir == "" {
		return nil, fmt.Errorf("soupsd: -role standby requires -data-dir (the received log must survive this process)")
	}
	var wals []*storage.WAL
	backends := make([]storage.Backend, 0, units)
	for i := 0; i < units; i++ {
		w, err := storage.OpenWAL(storage.WALOptions{
			Dir:  filepath.Join(dataDir, fmt.Sprintf("unit-%d", i)),
			Sync: sync,
		})
		if err != nil {
			for _, open := range wals {
				open.Close()
			}
			return nil, fmt.Errorf("soupsd: opening standby unit %d: %w", i, err)
		}
		wals = append(wals, w)
		backends = append(backends, w)
	}
	sb, err := replica.NewStandby(replica.StandbyOptions{
		Self:         "standby",
		Backends:     backends,
		PersistEvery: *persistMark,
		CatchupChunk: *catchupSize,
	})
	if err != nil {
		for _, open := range wals {
			open.Close()
		}
		return nil, err
	}
	return &standbyReceiver{sb: sb, wals: wals}, nil
}

// close fences the receiver and releases the WALs (promotion reopens them
// through the ordinary recovery path).
func (r *standbyReceiver) close() error {
	r.sb.Stop()
	var firstErr error
	for _, w := range r.wals {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handleReplicate receives one shipped batch (standby role only). A 200
// answer means the batch is appended to the unit's WAL — with -fsync-mode
// always, durably — which is what a synchronous primary's ack relies on.
func (s *server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	recv := s.standby
	s.mu.Unlock()
	if recv == nil {
		http.Error(w, "not a standby", http.StatusBadRequest)
		return
	}
	batch, err := readShipBody(r.Body)
	if err != nil {
		http.Error(w, "malformed batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	wm, gap, err := recv.sb.Receive(batch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"watermark": wm, "gap": gap})
}

// readShipBody decodes a /replicate body: the ship header, then record
// frames to the end of the body.
func readShipBody(body io.Reader) (replica.ShipBatch, error) {
	sr := storage.NewStreamReader(body)
	var unit uint64
	from, err := sr.Control(tagShip, &unit)
	if err != nil {
		return replica.ShipBatch{}, err
	}
	batch := replica.ShipBatch{From: clock.NodeID(from), Unit: int(unit)}
	for {
		rec, err := sr.Record()
		if err == io.EOF {
			return batch, nil
		}
		if err != nil {
			return replica.ShipBatch{}, err
		}
		batch.Records = append(batch.Records, rec)
	}
}

// handleCatchup serves one streaming catch-up chunk from either role: a
// primary answers from its live unit log, a standby from its received log.
// Query parameters: unit, after (the puller's cursor LSN), limit (appended
// records per chunk; the server clamps it). The reply is the "more" flag,
// then the chunk's record frames — pullers loop, advancing "after" to the
// highest append LSN received, until more is 0.
func (s *server) handleCatchup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	unit, err := strconv.Atoi(r.URL.Query().Get("unit"))
	if err != nil {
		http.Error(w, "bad unit: "+err.Error(), http.StatusBadRequest)
		return
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil && r.URL.Query().Get("after") != "" {
		http.Error(w, "bad after: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	max := maxCatchupChunk
	if *catchupSize > 0 && *catchupSize < max {
		max = *catchupSize
	}
	if limit <= 0 || limit > max {
		limit = max
	}
	k, recv := s.roles()
	var recs []lsdb.Record
	var more bool
	switch {
	case recv != nil:
		recs, more, err = recv.sb.ServeCatchup(unit, after, limit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	case k != nil:
		// One extra record decides more; the slice below cuts it back off.
		recs = k.UnitTail(unit, after, limit+1)
		if len(recs) > limit {
			recs, more = recs[:limit], true
		}
	default:
		http.Error(w, "no log to serve", http.StatusServiceUnavailable)
		return
	}
	var flag uint64
	if more {
		flag = 1
	}
	body := storage.AppendControl(nil, tagCatchup, nil, flag)
	for i := range recs {
		if body, err = storage.AppendFrame(body, &recs[i]); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// maxCatchupChunk caps how many appended records one /catchup response may
// carry regardless of what the puller asked for.
const maxCatchupChunk = 512

// handlePromote turns a standby into the primary: fence the receivers, close
// their WALs, and bootstrap a kernel over the data directory — the received
// log replays through the same recovery a restarted durable primary runs.
// The promoted node honours the replication flags, so a standby started with
// -standbys ships onward to the rest of the cluster after taking over.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.standby == nil {
		http.Error(w, "not a standby", http.StatusBadRequest)
		return
	}
	if err := s.standby.close(); err != nil {
		http.Error(w, "closing receivers: "+err.Error(), http.StatusInternalServerError)
		return
	}
	k, err := openKernel()
	if err != nil {
		http.Error(w, "recovering kernel: "+err.Error(), http.StatusInternalServerError)
		return
	}
	k.Start()
	s.standby = nil
	s.kernel.Store(k)
	writeJSON(w, http.StatusOK, map[string]string{"status": "promoted", "role": "primary"})
}

// replicationMetrics appends the replication lines to /metrics.
func (s *server) replicationMetrics(w io.Writer, k *repro.Kernel, recv *standbyReceiver) {
	if recv != nil {
		st := recv.sb.Stats()
		fmt.Fprintf(w, "replication.role standby\n")
		fmt.Fprintf(w, "replication.batches_received %d\n", st.BatchesReceived)
		fmt.Fprintf(w, "replication.records_received %d\n", st.RecordsReceived)
		fmt.Fprintf(w, "replication.duplicates %d\n", st.Duplicates)
		fmt.Fprintf(w, "replication.gaps %d\n", st.Gaps)
		fmt.Fprintf(w, "replication.catchup_rounds %d\n", st.CatchupRounds)
		fmt.Fprintf(w, "replication.catchup_records %d\n", st.CatchupRecords)
		for i := 0; i < recv.sb.Units(); i++ {
			fmt.Fprintf(w, "replication.watermark.unit%d %d\n", i, recv.sb.Watermark(i))
		}
		return
	}
	rs := k.ReplicaStats()
	if !rs.Enabled {
		return
	}
	fmt.Fprintf(w, "replication.role primary\n")
	fmt.Fprintf(w, "replication.mode %s\n", rs.Mode)
	fmt.Fprintf(w, "replication.standbys %d\n", rs.Standbys)
	fmt.Fprintf(w, "replication.batches_shipped %d\n", rs.Ship.BatchesShipped)
	fmt.Fprintf(w, "replication.records_shipped %d\n", rs.Ship.RecordsShipped)
	fmt.Fprintf(w, "replication.sync_acks %d\n", rs.Ship.SyncAcks)
	fmt.Fprintf(w, "replication.ship_failures %d\n", rs.Ship.ShipFailures)
	fmt.Fprintf(w, "replication.ship_retries %d\n", rs.Ship.ShipRetries)
	fmt.Fprintf(w, "replication.window_overflows %d\n", rs.Ship.WindowOverflows)
	fmt.Fprintf(w, "replication.catchup_served %d\n", rs.Ship.CatchupServed)
	fmt.Fprintf(w, "replication.breaker_opens %d\n", rs.Ship.BreakerOpens)
	fmt.Fprintf(w, "replication.breaker_short_circuits %d\n", rs.Ship.BreakerShortCircuits)
	states := k.Health().Breakers
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "replication.breaker.%s %s\n", name, states[name])
	}
}

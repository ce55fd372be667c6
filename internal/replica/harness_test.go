package replica

// A deterministic, seedable fault-injection harness for WAL-shipped
// replication. One primary and a set of standbys run a scripted write
// schedule interleaved with link faults — loss, blocks, extra latency, whole
// standby crash/restarts — all drawn from seeded generators, so a failing
// (mode, seed, steps) triple replays exactly. Two independent streams keep
// the schedules aligned across ack modes: the write stream (keys, amounts)
// and the fault stream never observe outcomes, so every mode faces the same
// history and must converge to the same state.
//
// To shrink a failure, rerun with the reported seed and lower the step count
// passed to run() until the symptom disappears.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

type harnessWrite struct {
	txn    string
	key    entity.Key
	amount float64
	acked  bool // the client saw success
}

type faultHarness struct {
	t    *testing.T
	seed int64
	mode AckMode
	rngW *rand.Rand // write schedule — identical across modes
	rngF *rand.Rand // fault schedule — identical across modes

	net      *netsim.Network
	p        *shipPrimary
	pfb      *storage.FaultBackend // the primary's backend, fault-injectable
	sbIDs    []clock.NodeID
	standbys map[clock.NodeID]*Standby
	backends map[clock.NodeID]storage.Backend

	// storageFaults adds the disk's failure vocabulary to the fault
	// schedule: ENOSPC windows, torn appends, corruption, mid-run repair.
	// Off for the pure link-fault tests (whose model assumes every write
	// commits locally).
	storageFaults bool
	refused       int // writes refused with ErrDegraded (never committed anywhere)

	keys   []entity.Key
	model  map[entity.Key]float64 // sum of every committed write
	writes []harnessWrite
}

func newFaultHarness(t *testing.T, mode AckMode, seed int64, nStandbys int) *faultHarness {
	t.Helper()
	h := &faultHarness{
		t:        t,
		seed:     seed,
		mode:     mode,
		rngW:     rand.New(rand.NewSource(seed)),
		rngF:     rand.New(rand.NewSource(seed + 1000)),
		net:      netsim.New(netsim.Config{UnreachableDelay: time.Millisecond, Seed: seed}),
		standbys: map[clock.NodeID]*Standby{},
		backends: map[clock.NodeID]storage.Backend{},
		model:    map[entity.Key]float64{},
	}
	for i := 0; i < 4; i++ {
		h.keys = append(h.keys, acct(fmt.Sprintf("H%d", i)))
	}
	for i := 0; i < nStandbys; i++ {
		id := clock.NodeID(fmt.Sprintf("s%d", i+1))
		h.sbIDs = append(h.sbIDs, id)
		h.backends[id] = storage.NewMemory()
		h.standbys[id] = newShipStandby(t, h.net, id, h.backends[id])
	}
	// A nanosecond re-arm: after a retryable degrade every subsequent write
	// is admitted as a probe, so an injected ENOSPC window refuses roughly
	// its length in writes and then heals without wall-clock waits.
	h.p, h.pfb = newFaultShipPrimary(t, h.net, h.sbIDs, mode, time.Nanosecond)
	return h
}

func (h *faultHarness) fatalf(format string, args ...interface{}) {
	h.t.Helper()
	prefix := fmt.Sprintf("[mode=%s seed=%d writes=%d] ", h.mode, h.seed, len(h.writes))
	h.t.Fatalf(prefix+format, args...)
}

// fault draws one step of the fault schedule. Every branch consumes the same
// random values so the stream stays aligned whatever happens.
func (h *faultHarness) fault() {
	r := h.rngF.Float64()
	sb := h.sbIDs[h.rngF.Intn(len(h.sbIDs))]
	severity := h.rngF.Float64()
	switch {
	case r < 0.10: // lossy link to one standby
		h.net.SetLinkFault("p", sb, netsim.LinkFault{Loss: 0.5 + severity/2})
	case r < 0.16: // blocked link (single-standby partition)
		h.net.SetLinkFault("p", sb, netsim.LinkFault{Block: true})
	case r < 0.22: // slow link
		h.net.SetLinkFault("p", sb, netsim.LinkFault{ExtraLatency: time.Duration(1+int(severity*3)) * time.Millisecond})
	case r < 0.30: // heal every link
		h.net.ClearLinkFaults()
	case r < 0.34: // crash a standby and restart it over its surviving log
		h.restart(sb)
	case r < 0.42: // disk-full window on the primary
		if h.storageFaults {
			h.pfb.FailAppends(1 + int(severity*2))
		}
	case r < 0.46: // torn append: fail-stop until quarantine
		if h.storageFaults {
			h.pfb.TearNextAppend()
		}
	case r < 0.50: // corruption detected at the next append
		if h.storageFaults {
			h.pfb.CorruptFrom(uint64(len(h.writes)) + 1)
		}
	case r < 0.62: // operator shows up: heal the disk, repair the unit
		if h.storageFaults {
			h.repairStorage()
		}
	}
}

// repairStorage is the operator action for a degraded primary: cancel
// pending retryable injections and, for the permanent states (fail-stopped,
// corrupt), quarantine the bad log suffix and refill it. Log-first commits
// mean the primary's own memory is authoritative for the refill — it never
// installed anything the log did not accept.
func (h *faultHarness) repairStorage() {
	h.pfb.Heal()
	if d := h.p.db.Degraded(); d != nil && d.Permanent {
		if err := h.p.db.Repair(func(after uint64) ([]lsdb.Record, error) {
			return h.p.db.RecordsAfter(after), nil
		}); err != nil {
			h.fatalf("storage repair: %v", err)
		}
	}
}

// documentedDegradedReason matches the taxonomy in internal/lsdb/degraded.go
// and docs/OPERATIONS.md.
func documentedDegradedReason(reason string) bool {
	switch reason {
	case "append-error", "fail-stopped", "corrupt", "poisoned":
		return true
	}
	return false
}

// restart models a standby crash: the process dies (receiver refuses the
// stream) and comes back over whatever its backend durably holds, resuming
// its progress from the log alone.
func (h *faultHarness) restart(id clock.NodeID) {
	h.standbys[id].Stop()
	sb, err := NewStandby(StandbyOptions{
		Self:     id,
		Net:      h.net,
		Backends: []storage.Backend{h.backends[id]},
		Timeout:  250 * time.Millisecond,
	})
	if err != nil {
		h.fatalf("restarting standby %s: %v", id, err)
	}
	h.standbys[id] = sb
}

func (h *faultHarness) write(i int) {
	key := h.keys[h.rngW.Intn(len(h.keys))]
	amount := float64(h.rngW.Intn(9) + 1)
	txn := fmt.Sprintf("w%d", i)
	_, err := h.p.db.Append(key, []entity.Op{entity.Delta("balance", amount)}, ts(int64(i+1)), "p", txn)
	if errors.Is(err, lsdb.ErrDegraded) {
		// Log-first refusal: nothing was installed or shipped, the LSN
		// reservation rolled back, and the client saw a determinate typed
		// error — the write never happened anywhere.
		h.refused++
		d := h.p.db.Degraded()
		if d == nil {
			h.fatalf("write %s refused with ErrDegraded but the unit reports healthy", txn)
		}
		if !documentedDegradedReason(d.Reason) {
			h.fatalf("write %s refused with undocumented degraded reason %q", txn, d.Reason)
		}
		return
	}
	if err != nil && !errors.Is(err, ErrStandbyAcks) {
		h.fatalf("write %s failed outside replication: %v", txn, err)
	}
	// Either way the record is committed on the primary; only the client's
	// ack differs.
	h.model[key] += amount
	h.writes = append(h.writes, harnessWrite{txn: txn, key: key, amount: amount, acked: err == nil})
}

// healAndConverge clears every fault, drains in-flight ships, and has each
// standby pull its missing tail; afterwards every standby must hold the full
// log.
func (h *faultHarness) healAndConverge() {
	if h.storageFaults {
		h.repairStorage()
	}
	h.net.ClearLinkFaults()
	// Lanes ship asynchronously: drain them (retries now succeed against the
	// healed links) before quiescing the network's in-flight deliveries.
	h.p.shipper.Drain()
	h.net.Quiesce()
	want := uint64(len(h.writes))
	for _, id := range h.sbIDs {
		if _, err := h.standbys[id].CatchUp("p", 0); err != nil {
			h.fatalf("catch-up on %s: %v", id, err)
		}
		if got := h.standbys[id].Watermark(0); got != want {
			h.fatalf("standby %s watermark = %d after heal+catch-up, want %d", id, got, want)
		}
	}
}

// failover kills the primary, promotes a schedule-chosen standby (unioning
// the others' logs), and checks the two replication invariants: no acked
// write is lost, and resubmitting the indeterminate writes with their
// original transaction ids lands each exactly once. Returns the final state.
func (h *faultHarness) failover() map[entity.Key]float64 {
	idx := h.rngF.Intn(len(h.sbIDs))
	chosen := h.standbys[h.sbIDs[idx]]
	var peers []clock.NodeID
	for _, id := range h.sbIDs {
		if id != h.sbIDs[idx] {
			peers = append(peers, id)
		}
	}
	dbs, err := promote(chosen, peers, lsdb.Options{Node: chosen.ID()}, accountType())
	if err != nil {
		h.fatalf("promoting %s: %v", chosen.ID(), err)
	}
	db := dbs[0]

	present := map[string]bool{}
	for _, key := range h.keys {
		for _, rec := range db.RecordsFor(key) {
			present[rec.TxnID] = true
		}
	}
	for _, w := range h.writes {
		if w.acked && !present[w.txn] {
			h.fatalf("acked write %s (%s += %v) lost in failover", w.txn, w.key, w.amount)
		}
	}

	duplicates := 0
	for i, w := range h.writes {
		if w.acked {
			continue
		}
		_, err := db.Append(w.key, []entity.Op{entity.Delta("balance", w.amount)},
			ts(int64(10000+i)), chosen.ID(), w.txn)
		switch {
		case errors.Is(err, lsdb.ErrDuplicateTxn):
			duplicates++ // survived replication after all — applied exactly once
		case err != nil:
			h.fatalf("resubmitting %s: %v", w.txn, err)
		}
	}
	h.t.Logf("mode=%s seed=%d: %d writes, %d acked, %d resubmitted as duplicates",
		h.mode, h.seed, len(h.writes), h.ackedCount(), duplicates)

	got := map[entity.Key]float64{}
	for _, key := range h.keys {
		if h.model[key] == 0 {
			continue
		}
		st, _, err := db.Current(key)
		if err != nil {
			h.fatalf("reading %s on promoted store: %v", key, err)
		}
		got[key] = st.Float("balance")
	}
	return got
}

func (h *faultHarness) ackedCount() int {
	n := 0
	for _, w := range h.writes {
		if w.acked {
			n++
		}
	}
	return n
}

// run drives the full scenario and returns the post-failover state.
func (h *faultHarness) run(steps int) map[entity.Key]float64 {
	for i := 0; i < steps; i++ {
		h.fault()
		h.write(i)
	}
	h.healAndConverge()
	return h.failover()
}

// serialBaseline applies the same seeded write schedule to a plain
// single-node store: the ground truth every replicated mode must match.
func serialBaseline(t *testing.T, seed int64, steps int) map[entity.Key]float64 {
	t.Helper()
	rngW := rand.New(rand.NewSource(seed))
	keys := make([]entity.Key, 4)
	for i := range keys {
		keys[i] = acct(fmt.Sprintf("H%d", i))
	}
	db := lsdb.Open(lsdb.Options{Node: "serial"})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		key := keys[rngW.Intn(len(keys))]
		amount := float64(rngW.Intn(9) + 1)
		if _, err := db.Append(key, []entity.Op{entity.Delta("balance", amount)}, ts(int64(i+1)), "serial", fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	out := map[entity.Key]float64{}
	for _, key := range keys {
		st, _, err := db.Current(key)
		if err != nil {
			continue // key never drawn
		}
		out[key] = st.Float("balance")
	}
	return out
}

func sameState(a, b map[entity.Key]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// The fault matrix: every ack mode, several seeds, faults throughout.
// Invariants per cell: standbys converge to the full log after heal, no
// acked write is lost across failover, and exactly-once resubmission brings
// the promoted store to the model state.
func TestFaultMatrixConvergesAndKeepsAckedWrites(t *testing.T) {
	seeds := []int64{1, 7, 42}
	steps := 60
	if testing.Short() {
		seeds = seeds[:1]
		steps = 30
	}
	for _, mode := range []AckMode{AckAsync, AckSync, AckQuorum} {
		for _, seed := range seeds {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				h := newFaultHarness(t, mode, seed, 2)
				defer h.net.Close()
				final := h.run(steps)
				if !sameState(final, h.model) {
					h.fatalf("promoted state diverged from model:\n got %v\nwant %v", final, h.model)
				}
			})
		}
	}
}

// Cross-mode equivalence: the same seeded schedule, run serially and under
// every ack mode with faults, ends in the identical state after heal,
// catch-up and failover. Ack modes may differ in what they promise the
// client mid-flight; they must not differ in where the data ends up.
func TestCrossModeEquivalenceAfterHealAndSync(t *testing.T) {
	seeds := []int64{3, 11}
	steps := 50
	if testing.Short() {
		seeds = seeds[:1]
		steps = 25
	}
	for _, seed := range seeds {
		want := serialBaseline(t, seed, steps)
		for _, mode := range []AckMode{AckAsync, AckSync, AckQuorum} {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mode), func(t *testing.T) {
				h := newFaultHarness(t, mode, seed, 2)
				defer h.net.Close()
				got := h.run(steps)
				if !sameState(got, want) {
					h.fatalf("mode diverged from serial baseline:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// The storage-fault dimension: the same seeded schedule with disk faults —
// ENOSPC windows, torn appends, detected corruption, scripted repairs —
// layered over the link faults, across every ack mode. Invariants per cell:
// no crash, every refusal is a documented typed degraded state (checked in
// write), no acked write is lost across failover, and after heal + repair
// the standbys converge and the promoted store matches the model of
// committed writes exactly.
func TestStorageFaultMatrixKeepsInvariantsAndConverges(t *testing.T) {
	seeds := []int64{2, 9, 21}
	steps := 80
	if testing.Short() {
		seeds = seeds[:1]
		steps = 40
	}
	for _, mode := range []AckMode{AckAsync, AckSync, AckQuorum} {
		for _, seed := range seeds {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				h := newFaultHarness(t, mode, seed, 2)
				h.storageFaults = true
				defer h.net.Close()
				final := h.run(steps)
				if !sameState(final, h.model) {
					h.fatalf("promoted state diverged from model:\n got %v\nwant %v", final, h.model)
				}
				fs := h.pfb.Stats()
				t.Logf("mode=%s seed=%d: %d committed, %d refused, degraded episodes=%d, faults=%+v",
					mode, seed, len(h.writes), h.refused, h.p.db.DegradedEvents(), fs)
				if h.p.db.DegradedEvents() == 0 {
					t.Fatalf("schedule injected no storage degradation (faults=%+v); pick a different seed", fs)
				}
			})
		}
	}
}

package replica

// Degraded storage under replication: a primary whose backend starts
// refusing, tearing or corrupting appends must fail writers with the typed
// degraded vocabulary, keep serving reads, and come back — by re-arming
// after a transient window, by quarantine + refill from a standby's received
// log, or by failover when the backend is poisoned. Plus the standby circuit
// breaker and ship-retry behaviour on the shipping side.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/storage"
	"repro/internal/txn"
)

// newFaultShipPrimary is newShipPrimary over a fault-injecting backend with
// a fast re-arm, so degraded windows heal within a test's patience.
func newFaultShipPrimary(t *testing.T, net *netsim.Network, standbys []clock.NodeID, mode AckMode, rearm time.Duration) (*shipPrimary, *storage.FaultBackend) {
	t.Helper()
	fb := storage.NewFaultBackend(storage.NewMemory())
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: fb, Shards: 4, RearmAfter: rearm})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self:     "p",
		Standbys: standbys,
		Mode:     mode,
		Timeout:  250 * time.Millisecond,
		Net:      net,
		Source:   func(unit int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
	})
	db.SetCommitSink(sh.Sink(0))
	return &shipPrimary{db: db, shipper: sh}, fb
}

// An injected ENOSPC window degrades the unit ("append-error", retryable):
// writers get ErrDegraded, reads keep serving, and once the window passes the
// next write is admitted as the re-arm probe and the unit heals on its own.
// Every ack mode behaves the same — the refusal is log-first, before any
// shipping happens — and the standby converges on exactly the committed
// writes.
func TestEnospcWindowDegradesReadOnlyThenReArms(t *testing.T) {
	for _, mode := range []AckMode{AckAsync, AckSync, AckQuorum} {
		t.Run(mode.String(), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			sb := newShipStandby(t, net, "s1", storage.NewMemory())
			p, fb := newFaultShipPrimary(t, net, []clock.NodeID{"s1"}, mode, 20*time.Millisecond)
			key := acct("A1")

			if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1"); err != nil {
				t.Fatalf("healthy write: %v", err)
			}
			fb.FailAppends(2)
			if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 5)}, ts(2), "p", "t2"); !errors.Is(err, lsdb.ErrDegraded) {
				t.Fatalf("write into full disk: err = %v, want ErrDegraded", err)
			}
			d := p.db.Degraded()
			if d == nil || d.Reason != "append-error" || d.Permanent {
				t.Fatalf("degraded state = %+v, want retryable append-error", d)
			}
			// Inside the re-arm delay the write is refused without touching
			// the backend at all.
			if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 5)}, ts(3), "p", "t3"); !errors.Is(err, lsdb.ErrDegraded) {
				t.Fatalf("write inside re-arm delay: err = %v, want ErrDegraded", err)
			}
			// Reads are untouched: the refused write never installed.
			st, _, err := p.db.Current(key)
			if err != nil || st.Float("balance") != 10 {
				t.Fatalf("read while degraded = %v, %v (want balance 10)", st, err)
			}
			// First probe hits the second injected refusal and re-degrades;
			// the one after that heals.
			deadline := time.Now().Add(2 * time.Second)
			healed := false
			for i := 0; time.Now().Before(deadline); i++ {
				time.Sleep(2 * time.Millisecond)
				if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(int64(10+i)), "p", fmt.Sprintf("probe-%d", i)); err == nil {
					healed = true
					break
				} else if !errors.Is(err, lsdb.ErrDegraded) {
					t.Fatalf("probe: %v", err)
				}
			}
			if !healed {
				t.Fatal("unit never re-armed after the ENOSPC window")
			}
			if p.db.Degraded() != nil {
				t.Fatalf("still degraded after successful write: %+v", p.db.Degraded())
			}
			if p.db.Rearms() == 0 || p.db.WritesRefused() == 0 {
				t.Fatalf("counters: rearms=%d refused=%d, want both > 0", p.db.Rearms(), p.db.WritesRefused())
			}
			// The standby holds exactly the committed writes: refused appends
			// rolled their LSNs back, so the log is dense and converges.
			net.Quiesce()
			if _, err := sb.CatchUp("p", 0); err != nil {
				t.Fatal(err)
			}
			want := uint64(2) // t1 + the healing probe
			if got := sb.Watermark(0); got != want {
				t.Fatalf("standby watermark = %d, want %d", got, want)
			}
		})
	}
}

// A failed fsync poisons the backend permanently: no probe is attempted, no
// repair is accepted, reads keep serving, and recovery is failover — the
// standby holds every acked write.
func TestFsyncPoisonIsPermanentUntilFailover(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	p, fb := newFaultShipPrimary(t, net, []clock.NodeID{"s1"}, AckSync, 20*time.Millisecond)
	key := acct("A1")

	for i := 0; i < 2; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", fmt.Sprintf("t%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fb.PoisonNextSync()
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 100)}, ts(3), "p", "t3"); !errors.Is(err, lsdb.ErrDegraded) {
		t.Fatalf("write over failed fsync: err = %v, want ErrDegraded", err)
	}
	d := p.db.Degraded()
	if d == nil || d.Reason != "poisoned" || !d.Permanent {
		t.Fatalf("degraded state = %+v, want permanent poisoned", d)
	}
	// Never retry a failed fsync: well past the re-arm delay, writes are
	// still refused without touching the backend.
	time.Sleep(5 * time.Millisecond)
	if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(4), "p", "t4"); !errors.Is(err, lsdb.ErrDegraded) {
		t.Fatalf("post-poison write: err = %v, want ErrDegraded (no probe)", err)
	}
	if fb.Stats().AppendsPassed != 2 {
		t.Fatalf("backend saw %d appends after poisoning, want the 2 healthy ones only", fb.Stats().AppendsPassed)
	}
	// Quarantine cannot restore unknown durability.
	if err := p.db.Repair(nil); err == nil {
		t.Fatal("Repair healed a poisoned backend")
	}
	// Reads still serve the pre-poison state.
	st, _, err := p.db.Current(key)
	if err != nil || st.Float("balance") != 20 {
		t.Fatalf("read on poisoned unit = %v, %v (want balance 20)", st, err)
	}
	// Failover: every acked write (t1, t2) is on the standby.
	_, bal := promoteBalance(t, sb, nil, key)
	if bal != 20 {
		t.Fatalf("promoted balance = %v, want 20 (acked writes survive failover)", bal)
	}
}

// Detected log corruption fail-stops the unit until Repair quarantines the
// bad suffix and refills it from a standby's received log (TailAfter), after
// which writes resume on the dense LSN sequence.
func TestCorruptionRepairedFromStandbyTail(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	sbBackend := storage.NewMemory()
	sb := newShipStandby(t, net, "s1", sbBackend)
	p, fb := newFaultShipPrimary(t, net, []clock.NodeID{"s1"}, AckSync, 20*time.Millisecond)
	key := acct("A1")

	for i := 0; i < 3; i++ {
		if _, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(int64(i+1)), "p", fmt.Sprintf("t%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	fb.CorruptFrom(2)
	var ce *storage.CorruptError
	_, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(4), "p", "t4")
	if !errors.Is(err, lsdb.ErrDegraded) || !errors.As(err, &ce) {
		t.Fatalf("write over corrupt log: err = %v, want ErrDegraded wrapping *CorruptError", err)
	}
	if d := p.db.Degraded(); d == nil || d.Reason != "corrupt" || !d.Permanent {
		t.Fatalf("degraded state = %+v, want permanent corrupt", d)
	}
	// Repair: quarantine (cuts the primary's log back to LSN 1), then refill
	// LSNs 2.. from the standby's received copy.
	if err := p.db.Repair(func(after uint64) ([]lsdb.Record, error) {
		return TailAfter(sbBackend, after, 0)
	}); err != nil {
		t.Fatalf("Repair from standby tail: %v", err)
	}
	if d := p.db.Degraded(); d != nil {
		t.Fatalf("still degraded after repair: %+v", d)
	}
	if fb.Stats().Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", fb.Stats().Quarantines)
	}
	// Writes resume and the repaired log holds the full dense sequence.
	res, err := p.db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(5), "p", "t5")
	if err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	if res.Record.LSN != 4 {
		t.Fatalf("post-repair LSN = %d, want 4 (refused write left no hole)", res.Record.LSN)
	}
	tail, err := TailAfter(fb, 0, 0)
	if err != nil {
		t.Fatalf("reading repaired log: %v", err)
	}
	if len(tail) != 4 {
		t.Fatalf("repaired log holds %d records, want 4", len(tail))
	}
	net.Quiesce()
	if _, err := sb.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got := sb.Watermark(0); got != 4 {
		t.Fatalf("standby watermark = %d, want 4", got)
	}
	_, bal := promoteBalance(t, sb, nil, key)
	if bal != 40 {
		t.Fatalf("promoted balance = %v, want 40", bal)
	}
}

// fakeNow is an injectable clock for breaker cooldowns.
type fakeNow struct{ nanos int64 }

func (f *fakeNow) now() time.Time          { return time.Unix(0, atomic.LoadInt64(&f.nanos)) }
func (f *fakeNow) advance(d time.Duration) { atomic.AddInt64(&f.nanos, int64(d)) }

// A dead standby in sync mode costs a timeout per commit only until its
// breaker opens; after that ships short-circuit instantly. Past the cooldown
// one probe is admitted half-open, a success closes the breaker, and the
// standby heals the missed window through catch-up.
func TestBreakerOpensShortCircuitsAndHealsHalfOpen(t *testing.T) {
	clk := &fakeNow{}
	net := netsim.New(netsim.Config{UnreachableDelay: time.Millisecond})
	defer net.Close()
	sb := newShipStandby(t, net, "s1", storage.NewMemory())
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self: "p", Standbys: []clock.NodeID{"s1"}, Mode: AckSync,
		Timeout: 50 * time.Millisecond, Net: net,
		Source:           func(unit int, after uint64, limit int) []lsdb.Record { return db.RecordsAfterN(after, limit) },
		RetryAttempts:    -1, // isolate the breaker from the retry loop
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
		Now:              clk.now,
	})
	db.SetCommitSink(sh.Sink(0))
	key := acct("A1")
	write := func(i int) error {
		_, err := db.Append(key, []entity.Op{entity.Delta("balance", 1)}, ts(int64(i)), "p", fmt.Sprintf("t%d", i))
		return err
	}

	net.SetLinkFault("p", "s1", netsim.LinkFault{Block: true})
	for i := 1; i <= 2; i++ {
		if err := write(i); !errors.Is(err, ErrStandbyAcks) {
			t.Fatalf("write %d to dead standby: err = %v, want ErrStandbyAcks", i, err)
		}
	}
	if got := sh.BreakerStates()["s1"]; got != "open" {
		t.Fatalf("breaker after %d failures = %q, want open", 2, got)
	}
	if sh.Stats().BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", sh.Stats().BreakerOpens)
	}
	// Open breaker: the ship is skipped outright (no transport attempt, no
	// timeout), still failing the sync ack verdict.
	before := sh.Stats()
	if err := write(3); !errors.Is(err, ErrStandbyAcks) {
		t.Fatalf("write during open breaker: err = %v, want ErrStandbyAcks", err)
	}
	after := sh.Stats()
	if after.BreakerShortCircuits != before.BreakerShortCircuits+1 {
		t.Fatalf("short circuits %d -> %d, want +1", before.BreakerShortCircuits, after.BreakerShortCircuits)
	}
	// A failed probe re-opens immediately (still blocked past the cooldown).
	clk.advance(2 * time.Second)
	if err := write(4); !errors.Is(err, ErrStandbyAcks) {
		t.Fatalf("failed probe: err = %v, want ErrStandbyAcks", err)
	}
	if got := sh.BreakerStates()["s1"]; got != "open" {
		t.Fatalf("breaker after failed probe = %q, want open", got)
	}
	// Standby comes back; the next probe closes the breaker.
	net.ClearLinkFaults()
	clk.advance(2 * time.Second)
	if err := write(5); err != nil {
		t.Fatalf("healing probe: %v", err)
	}
	if got := sh.BreakerStates()["s1"]; got != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", got)
	}
	// The standby missed LSNs 1-4; catch-up heals the gap.
	if _, err := sb.CatchUp("p", 0); err != nil {
		t.Fatal(err)
	}
	if got := sb.Watermark(0); got != 5 {
		t.Fatalf("standby watermark after heal = %d, want 5", got)
	}
	_, bal := promoteBalance(t, sb, nil, key)
	if bal != 5 {
		t.Fatalf("promoted balance = %v, want 5", bal)
	}
}

// dropNTransport fails the first n ships with a transient error, then
// delivers straight into the standby.
type dropNTransport struct {
	drops int32
	sb    *Standby
	calls int32
}

func (d *dropNTransport) Ship(_ clock.NodeID, batch ShipBatch, _ bool, _ time.Duration) error {
	atomic.AddInt32(&d.calls, 1)
	if atomic.AddInt32(&d.drops, -1) >= 0 {
		return errors.New("transient: packet dropped")
	}
	_, _, err := d.sb.Receive(batch)
	return err
}

// One dropped packet must not fail a sync commit: the bounded in-ship retry
// absorbs it before the ack verdict, so the client sees success and the
// standby holds the write.
func TestShipRetryAbsorbsSingleDrop(t *testing.T) {
	sb, err := NewStandby(StandbyOptions{Self: "s1", Backends: []storage.Backend{storage.NewMemory()}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &dropNTransport{drops: 1, sb: sb}
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self: "p", Standbys: []clock.NodeID{"s1"}, Mode: AckSync,
		Transport:    tr,
		RetryBackoff: time.Millisecond,
	})
	db.SetCommitSink(sh.Sink(0))
	key := acct("A1")
	if _, err := db.Append(key, []entity.Op{entity.Delta("balance", 10)}, ts(1), "p", "t1"); err != nil {
		t.Fatalf("sync commit over one dropped packet: %v (retry should have absorbed it)", err)
	}
	if got := atomic.LoadInt32(&tr.calls); got != 2 {
		t.Fatalf("transport calls = %d, want 2 (original + one retry)", got)
	}
	st := sh.Stats()
	if st.ShipRetries != 1 || st.ShipFailures != 0 || st.BreakerOpens != 0 {
		t.Fatalf("stats = %+v, want 1 retry, 0 failures, 0 breaker opens", st)
	}
	if got := sb.Watermark(0); got != 1 {
		t.Fatalf("standby watermark = %d, want 1", got)
	}
}

// Retries are bounded: a standby that stays dead exhausts them and the
// verdict still lands, with the retry count on the meter.
func TestShipRetryBoundedOnDeadStandby(t *testing.T) {
	sb, err := NewStandby(StandbyOptions{Self: "s1", Backends: []storage.Backend{storage.NewMemory()}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &dropNTransport{drops: 1 << 20, sb: sb}
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self: "p", Standbys: []clock.NodeID{"s1"}, Mode: AckSync,
		Transport:     tr,
		RetryAttempts: 2,
		RetryBackoff:  time.Millisecond,
	})
	db.SetCommitSink(sh.Sink(0))
	if _, err := db.Append(acct("A1"), []entity.Op{entity.Delta("balance", 1)}, ts(1), "p", "t1"); !errors.Is(err, ErrStandbyAcks) {
		t.Fatalf("err = %v, want ErrStandbyAcks after retries exhaust", err)
	}
	if got := atomic.LoadInt32(&tr.calls); got != 3 {
		t.Fatalf("transport calls = %d, want 3 (original + 2 retries)", got)
	}
	if st := sh.Stats(); st.ShipRetries != 2 || st.ShipFailures != 1 {
		t.Fatalf("stats = %+v, want 2 retries and 1 failure", st)
	}
}

// A step whose commit installs its record and then misses its standby acks
// is committed: the process engine settles it and does not run it again.
// Retrying it, under a fresh transaction id that the store's duplicate check
// cannot match, applied one deposit MaxAttempts times.
func TestStepCommittedBeforeDeadStandbyRunsOnce(t *testing.T) {
	sb, err := NewStandby(StandbyOptions{Self: "s1", Backends: []storage.Backend{storage.NewMemory()}})
	if err != nil {
		t.Fatal(err)
	}
	tr := &dropNTransport{drops: 1 << 20, sb: sb}
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self: "p", Standbys: []clock.NodeID{"s1"}, Mode: AckSync,
		Transport:    tr,
		RetryBackoff: time.Millisecond,
	})
	defer sh.Close()
	db.SetCommitSink(sh.Sink(0))
	mgr := txn.NewManager(db, nil, txn.Options{Node: "p", EnforceSingleEntity: true})
	q := queue.New("p", queue.Options{Entities: db.Entity})
	e := process.NewEngine(mgr, q, process.Options{MaxAttempts: 3, RetryBackoff: time.Millisecond})
	var runs atomic.Int32
	def := process.NewDefinition("deposits").Step("deposit", func(ctx *process.StepContext) error {
		runs.Add(1)
		return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1))
	})
	if err := e.Register(def); err != nil {
		t.Fatal(err)
	}
	key := acct("A1")
	if err := e.Submit(&queue.Event{Name: "deposit", Entity: key, TxnID: "client-1"}, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); e.QueueDepth() > 0 || runs.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("deposit still queued: %+v", e.Stats())
		}
		e.Drain()
		time.Sleep(time.Millisecond)
	}
	st, _, err := db.Current(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Float("balance"); got != 1 {
		t.Fatalf("balance = %v after %d runs, want 1: a step committed before its acks failed was applied again", got, runs.Load())
	}
	if ps := e.Stats(); ps.StepsExecuted != 1 || ps.StepsFailed != 0 || ps.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 executed, 0 failed, 0 retries", ps)
	}
	if ts := mgr.Stats(); ts.Commits != 1 || ts.Aborts != 0 {
		t.Fatalf("txn stats = %+v, want 1 commit and 0 aborts", ts)
	}
}

// A resubmitted event is refused on a promoted standby: its step's record,
// shipped with the txn id the step ran under, brings the id with it. The
// flow of TestStepCommittedBeforeDeadStandbyRunsOnce over a live standby,
// then a new engine on the promoted store.
func TestResubmissionRefusedOnPromotedStandby(t *testing.T) {
	sb, err := NewStandby(StandbyOptions{Self: "s1", Backends: []storage.Backend{storage.NewMemory()}})
	if err != nil {
		t.Fatal(err)
	}
	db := lsdb.Open(lsdb.Options{Node: "p", Backend: storage.NewMemory(), Shards: 4})
	if err := db.RegisterType(accountType()); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperOptions{
		Self: "p", Standbys: []clock.NodeID{"s1"}, Mode: AckSync,
		Transport:    &dropNTransport{sb: sb},
		RetryBackoff: time.Millisecond,
	})
	defer sh.Close()
	db.SetCommitSink(sh.Sink(0))
	key := acct("A1")
	// engine is a process engine over store with the one-step process
	// "deposit"; deposit submits the event for key under client-dup-1 to it,
	// as a resubmitting client would, and drains.
	engine := func(store *lsdb.DB, node clock.NodeID) *process.Engine {
		t.Helper()
		mgr := txn.NewManager(store, nil, txn.Options{Node: node, EnforceSingleEntity: true})
		q := queue.New(string(node), queue.Options{Entities: store.Entity})
		e := process.NewEngine(mgr, q, process.Options{})
		def := process.NewDefinition("deposits").Step("deposit", func(ctx *process.StepContext) error {
			return ctx.Txn.Update(ctx.Event.Entity, entity.Delta("balance", 1))
		})
		if err := e.Register(def); err != nil {
			t.Fatal(err)
		}
		return e
	}
	deposit := func(e *process.Engine) {
		t.Helper()
		if err := e.Submit(&queue.Event{Name: "deposit", Entity: key, TxnID: "client-dup-1"}, nil); err != nil {
			t.Fatal(err)
		}
		e.Drain()
		if ps := e.Stats(); ps.StepsFailed != 0 || e.QueueDepth() != 0 {
			t.Fatalf("stats = %+v, %d queued", ps, e.QueueDepth())
		}
	}
	balance := func(store *lsdb.DB) float64 {
		t.Helper()
		st, _, err := store.Current(key)
		if err != nil {
			t.Fatal(err)
		}
		return st.Float("balance")
	}
	primary := engine(db, "p")
	deposit(primary)
	deposit(primary)
	if b := balance(db); b != 1 {
		t.Fatalf("balance %v on the primary, want 1", b)
	}
	dbs, err := promote(sb, nil, lsdb.Options{Node: "s1"}, accountType())
	if err != nil {
		t.Fatal(err)
	}
	deposit(engine(dbs[0], "s1"))
	if b := balance(dbs[0]); b != 1 {
		t.Fatalf("balance %v on the promoted standby, want 1: the resubmission applied again", b)
	}
}

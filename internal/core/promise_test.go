package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apology"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/workload"
)

// bootstrapAt opens a durable kernel over dir.
func bootstrapAt(t *testing.T, dir string, opts Options) *Kernel {
	t.Helper()
	opts.DataDir = dir
	if opts.Node == "" {
		opts.Node = "p"
	}
	k, err := Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return k
}

// promoteFor promotes sb into a kernel with the standard types.
func promoteFor(t *testing.T, sb *replica.Standby) *Kernel {
	t.Helper()
	k, err := PromoteStandby(sb, nil, Options{Node: "s1"})
	if err != nil {
		t.Fatalf("PromoteStandby: %v", err)
	}
	if err := k.RegisterTypes(workload.Types()...); err != nil {
		t.Fatal(err)
	}
	return k
}

func balanceOf(t *testing.T, k *Kernel, key entity.Key) float64 {
	t.Helper()
	st, err := k.Read(key)
	if err != nil {
		t.Fatalf("Read %s: %v", key, err)
	}
	return st.Float("balance")
}

// A promise is its tentative record, so it survives a restart: the pending
// set, the promise's terms, its id and the promise limit all come back from
// the log, and breaking it afterwards withdraws the reservation.
func TestPromisesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PromiseLimit: 1}
	k := bootstrapAt(t, dir, opts)
	acct := accountKey("A1")
	if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
		t.Fatal(err)
	}
	made, err := k.UpdateTentative(acct, "alice", "hold", 3, entity.Delta("balance", -3))
	if err != nil {
		t.Fatal(err)
	}
	k.Close()

	k = bootstrapAt(t, dir, opts)
	defer k.Close()
	pending := k.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending after restart = %+v, want the one promise", pending)
	}
	p := pending[0]
	if p.ID != made.ID || p.ID != p.TxnID || p.Entity != acct || p.Partner != "alice" || p.Kind != "hold" || p.Quantity != 3 {
		t.Fatalf("promise after restart = %+v, made %+v", p, made)
	}
	if _, err := k.UpdateTentative(acct, "bob", "hold", 1, entity.Delta("balance", -1)); !errors.Is(err, apology.ErrPromiseLimit) {
		t.Fatalf("second promise after restart: %v, want ErrPromiseLimit (the limit counts the recovered one)", err)
	}
	if _, err := k.BreakPromise(p.ID, "no stock", "coupon"); err != nil {
		t.Fatalf("BreakPromise after restart: %v", err)
	}
	if bal := balanceOf(t, k, acct); bal != 5 {
		t.Fatalf("balance after the break = %v, want 5", bal)
	}
}

// A settlement is an append with an LSN, so it reaches a standby through
// catch-up like any record: a promise broken while the standby was cut off
// is broken on the promoted standby, whose pending set equals the
// primary's. Run 20 times: the async shipper races the partition.
func TestBrokenPromiseReachesPromotedStandby(t *testing.T) {
	for run := 0; run < 20; run++ {
		t.Run(fmt.Sprint(run), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			sb := newStandbyFor(t, net, "s1", 1)
			k := newKernel(t, Options{Node: "p", Replication: &ReplicationOptions{
				Standbys: []clock.NodeID{"s1"}, Ack: replica.AckAsync, Net: net}})
			acct, other := accountKey("A1"), accountKey("B1")
			if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
				t.Fatal(err)
			}
			p, err := k.UpdateTentative(acct, "alice", "hold", 3, entity.Delta("balance", -3))
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); sb.Watermark(0) != 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("standby watermark = %d, want 2", sb.Watermark(0))
				}
			}
			net.Partition([]clock.NodeID{"p"}, []clock.NodeID{"s1"})
			if _, err := k.BreakPromise(p.ID, "no stock", "coupon"); err != nil {
				t.Fatal(err)
			}
			if _, err := k.UpdateTentative(other, "bob", "hold", 1, entity.Delta("balance", -1)); err != nil {
				t.Fatal(err)
			}
			k.shipper.Drain()
			net.Heal()
			if _, err := sb.CatchUp("p", 0); err != nil {
				t.Fatal(err)
			}
			want := k.Pending()
			k.Close()
			promoted := promoteFor(t, sb)
			defer promoted.Close()
			if bal := balanceOf(t, promoted, acct); bal != 5 {
				t.Fatalf("promoted balance = %v, want 5 (the broken promise withdrawn)", bal)
			}
			if got := promoted.Pending(); len(want) != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("promoted pending = %+v, primary's = %+v", got, want)
			}
		})
	}
}

// Keeping a promise clears its record's tentative flag, so the tiered flush
// settles the entity as it would plain updates: after a checkpoint and a
// restart nothing of its history is left as detail.
func TestKeptPromiseSettles(t *testing.T) {
	dir := t.TempDir()
	k := bootstrapAt(t, dir, Options{})
	acct := accountKey("A1")
	if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
		t.Fatal(err)
	}
	p, err := k.UpdateTentative(acct, "alice", "hold", 3, entity.Delta("balance", -3))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.KeepPromise(p.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := k.Update(acct, entity.Delta("balance", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	k = bootstrapAt(t, dir, Options{})
	defer k.Close()
	h, err := k.History(acct)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 0 {
		t.Fatalf("History after checkpoint and restart holds %d versions, want 0 (all settled)", h.Len())
	}
	if st, _ := k.Read(acct); st.Float("balance") != 52 || st.Tentative {
		t.Fatalf("state after restart: balance %v tentative %v, want 52, false", st.Float("balance"), st.Tentative)
	}
}

// State.Tentative is true exactly while the entity has a live promise —
// keeping one of two leaves it tentative, settling both clears it — on the
// live, the restarted and the promoted kernel alike.
func TestTentativeTracksLivePromises(t *testing.T) {
	for _, phase := range []struct {
		name      string
		settle    func(k *Kernel, p1, p2 apology.Promise) error
		tentative bool
	}{
		{"one-of-two-kept", func(k *Kernel, p1, _ apology.Promise) error { return k.KeepPromise(p1.ID) }, true},
		{"kept-and-broken", func(k *Kernel, p1, p2 apology.Promise) error {
			if err := k.KeepPromise(p1.ID); err != nil {
				return err
			}
			_, err := k.BreakPromise(p2.ID, "no stock", "")
			return err
		}, false},
	} {
		t.Run(phase.name, func(t *testing.T) {
			dir := t.TempDir()
			net := netsim.New(netsim.Config{})
			defer net.Close()
			sb := newStandbyFor(t, net, "s1", 1)
			k := bootstrapAt(t, dir, Options{Replication: &ReplicationOptions{
				Standbys: []clock.NodeID{"s1"}, Ack: replica.AckSync, Net: net}})
			acct := accountKey("A1")
			if _, err := k.Update(acct, entity.Set("balance", 10.0)); err != nil {
				t.Fatal(err)
			}
			p1, err := k.UpdateTentative(acct, "alice", "hold", 1, entity.Delta("balance", -1))
			if err != nil {
				t.Fatal(err)
			}
			p2, err := k.UpdateTentative(acct, "bob", "hold", 2, entity.Delta("balance", -2))
			if err != nil {
				t.Fatal(err)
			}
			if err := phase.settle(k, p1, p2); err != nil {
				t.Fatal(err)
			}
			check := func(path string, k *Kernel) {
				t.Helper()
				st, err := k.Read(acct)
				if err != nil {
					t.Fatal(err)
				}
				if st.Tentative != phase.tentative || (len(k.Pending()) == 1) != phase.tentative {
					t.Fatalf("%s: tentative %v with %d pending, want %v", path, st.Tentative, len(k.Pending()), phase.tentative)
				}
			}
			check("live", k)
			k.Close()
			restarted := bootstrapAt(t, dir, Options{})
			check("restarted", restarted)
			restarted.Close()
			promoted := promoteFor(t, sb)
			defer promoted.Close()
			check("promoted", promoted)
		})
	}
}

// Keep, break and new promises race on one entity: every promise is settled
// by exactly one settlement, the promise limit is never overshot, and the
// state is the seed minus what the kept and the pending promises reserve.
func TestConcurrentSettlementsOneWinnerPerPromise(t *testing.T) {
	// The makers stop after target promises; with the limit far below it,
	// they can only get there while the settlers free capacity.
	const limit, makers, settlers, target = 3, 3, 4, 60
	k := newKernel(t, Options{Node: "n", PromiseLimit: limit})
	acct := accountKey("A1")
	if _, err := k.Update(acct, entity.Set("balance", 1000.0)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	made := map[string]float64{} // promise id -> its reservation
	won := map[string]string{}   // promise id -> the settlement that won
	var makersWG, settlersWG sync.WaitGroup
	for m := 0; m < makers; m++ {
		makersWG.Add(1)
		go func(m int) {
			defer makersWG.Done()
			for {
				mu.Lock()
				enough := len(made) >= target
				mu.Unlock()
				if enough {
					return
				}
				q := float64(m + 1)
				p, err := k.UpdateTentative(acct, fmt.Sprint(m), "hold", q, entity.Delta("balance", -q))
				switch {
				case err == nil:
					mu.Lock()
					made[p.ID] = q
					mu.Unlock()
				case !errors.Is(err, apology.ErrPromiseLimit):
					t.Errorf("promise: %v", err)
					return
				}
				if n := len(k.Pending()); n > limit {
					t.Errorf("%d promises pending, limit %d", n, limit)
				}
			}
		}(m)
	}
	done := make(chan struct{})
	for s := 0; s < settlers; s++ {
		settlersWG.Add(1)
		go func(s int) {
			defer settlersWG.Done()
			for attempt := s; ; attempt++ {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range k.Pending() {
					var err error
					how := "kept"
					if attempt%2 == 0 {
						err = k.KeepPromise(p.ID)
					} else {
						_, err = k.BreakPromise(p.ID, "declined", "")
						how = "broken"
					}
					switch {
					case err == nil:
						mu.Lock()
						if prev, dup := won[p.ID]; dup {
							t.Errorf("promise %s settled twice: %s, then %s", p.ID, prev, how)
						}
						won[p.ID] = how
						mu.Unlock()
					case !errors.Is(err, apology.ErrAlreadySettled):
						t.Errorf("settling %s: %v", p.ID, err)
					}
				}
			}
		}(s)
	}
	makersWG.Wait()
	close(done)
	settlersWG.Wait()
	want := 1000.0
	for _, p := range k.Pending() {
		won[p.ID] = "pending"
	}
	for id, q := range made {
		switch won[id] {
		case "kept", "pending":
			want -= q
		case "broken":
		default:
			t.Fatalf("promise %s neither settled nor pending", id)
		}
	}
	if got := balanceOf(t, k, acct); got != want {
		t.Fatalf("balance = %v, want %v", got, want)
	}
	kept, broken := k.Metrics().Counter("promise.kept").Value(), k.Metrics().Counter("promise.broken").Value()
	if kept == 0 || broken == 0 {
		t.Fatalf("kept %d, broken %d: the settlers never raced", kept, broken)
	}
	t.Logf("%d promises: %d kept, %d broken, %d pending", len(made), kept, broken, len(k.Pending()))
	if int(kept+broken)+len(k.Pending()) != len(made) {
		t.Fatalf("kept %d + broken %d + pending %d != made %d", kept, broken, len(k.Pending()), len(made))
	}
}

// Transaction ids — and so promise ids — are never issued twice: a kernel
// restarted after a checkpoint resumes past the ids whose records the flush
// summarised into a table and pruned from the log.
func TestTxnIDsResumeAfterCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	k := bootstrapAt(t, dir, Options{})
	acct := accountKey("A1")
	var before []string
	for i := 0; i < 2; i++ {
		res, err := k.Update(acct, entity.Delta("balance", 1))
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, res.TxnID)
	}
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	k = bootstrapAt(t, dir, Options{})
	defer k.Close()
	res, err := k.Update(acct, entity.Delta("balance", 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := "p-u0-txn-3"; res.TxnID != want {
		t.Fatalf("first txn id after the restart = %s, want %s (ids before it: %v)", res.TxnID, want, before)
	}
	if bal := balanceOf(t, k, acct); bal != 3 {
		t.Fatalf("balance = %v, want 3: the post-restart write was taken for a replay", bal)
	}
}

// A promise flushed while pending and settled before a later flush stays
// settled after a restart: the older table's copy of its record still says
// tentative, but the newer table's summary covers it.
func TestSettledPromiseStaysSettledAcrossFlushes(t *testing.T) {
	for _, settle := range []string{"keep", "break"} {
		t.Run(settle, func(t *testing.T) {
			dir := t.TempDir()
			k := bootstrapAt(t, dir, Options{})
			acct := accountKey("A1")
			if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
				t.Fatal(err)
			}
			p, err := k.UpdateTentative(acct, "alice", "hold", 3, entity.Delta("balance", -3))
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Checkpoint(); err != nil { // the promise's record goes to a table as detail
				t.Fatal(err)
			}
			want := 2.0
			if settle == "keep" {
				err = k.KeepPromise(p.ID)
			} else {
				_, err = k.BreakPromise(p.ID, "no stock", "")
				want = 5
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Checkpoint(); err != nil { // a summary past it
				t.Fatal(err)
			}
			k.Close()
			k = bootstrapAt(t, dir, Options{})
			defer k.Close()
			if pending := k.Pending(); len(pending) != 0 {
				t.Fatalf("pending after restart = %+v, want none", pending)
			}
			if err := k.KeepPromise(p.ID); !errors.Is(err, apology.ErrAlreadySettled) && !errors.Is(err, apology.ErrUnknownPromise) {
				t.Fatalf("keeping the settled promise again: %v", err)
			}
			if st, _ := k.Read(acct); st.Float("balance") != want || st.Tentative {
				t.Fatalf("state after restart: balance %v tentative %v, want %v, false", st.Float("balance"), st.Tentative, want)
			}
		})
	}
}

// Compaction keeps a pending promise's record, as the flush does, so the
// promise stays pending and settles afterwards — before or after a restart —
// with a keep or a break; once settled, the next compaction summarises it.
// A settlement is a transaction: it counts in txn.committed, and a refused
// one in txn.failed.
func TestPendingPromiseSurvivesCompact(t *testing.T) {
	for _, restart := range []bool{false, true} {
		for _, keep := range []bool{true, false} {
			t.Run(fmt.Sprintf("restart=%v/keep=%v", restart, keep), func(t *testing.T) {
				dir := t.TempDir()
				k := bootstrapAt(t, dir, Options{})
				acct := accountKey("A1")
				if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
					t.Fatal(err)
				}
				made, err := k.UpdateTentative(acct, "alice", "hold", 3, entity.Delta("balance", -3))
				if err != nil {
					t.Fatal(err)
				}
				k.Compact()
				if restart {
					k.Close()
					k = bootstrapAt(t, dir, Options{})
				}
				defer func() { k.Close() }()
				if pending := k.Pending(); len(pending) != 1 || pending[0].ID != made.ID || pending[0].Quantity != 3 {
					t.Fatalf("pending after compaction = %+v, want %s", pending, made.ID)
				}
				committed, failed := k.Metrics().Counter("txn.committed"), k.Metrics().Counter("txn.failed")
				c0, f0 := committed.Value(), failed.Value()
				want := 2.0
				if keep {
					err = k.KeepPromise(made.ID)
				} else {
					_, err = k.BreakPromise(made.ID, "no stock", "coupon")
					want = 5
				}
				if err != nil {
					t.Fatalf("settling after compaction: %v", err)
				}
				if err := k.KeepPromise(made.ID); !errors.Is(err, apology.ErrAlreadySettled) {
					t.Fatalf("second settlement: %v, want ErrAlreadySettled", err)
				}
				if c, f := committed.Value()-c0, failed.Value()-f0; c != 1 || f != 1 {
					t.Fatalf("settlements counted %d committed, %d failed; want 1, 1", c, f)
				}
				st, err := k.Read(acct)
				if err != nil {
					t.Fatal(err)
				}
				if st.Float("balance") != want || st.Tentative || len(k.Pending()) != 0 {
					t.Fatalf("after settling: balance %v tentative %v pending %d; want %v, false, 0",
						st.Float("balance"), st.Tentative, len(k.Pending()), want)
				}
				if n := k.Compact(); n != 1 {
					t.Fatalf("compaction after settling summarised %d entities, want 1", n)
				}
				if st, err := k.Read(acct); err != nil || st.Float("balance") != want || st.Tentative {
					t.Fatalf("after compacting the settled promise: %+v, %v", st, err)
				}
			})
		}
	}
}

// Pending lists the promises of every unit in the order they were made.
func TestPendingInOrderMadeAcrossUnits(t *testing.T) {
	k, err := Bootstrap(Options{Node: "p", Units: 4}, workload.Types()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var made []string
	units := map[string]bool{}
	for i := range 24 {
		acct := accountKey(fmt.Sprintf("A%d", i))
		if _, err := k.Update(acct, entity.Set("balance", 5.0)); err != nil {
			t.Fatal(err)
		}
		p, err := k.UpdateTentative(acct, "alice", "hold", 1, entity.Delta("balance", -1))
		if err != nil {
			t.Fatal(err)
		}
		made = append(made, p.ID)
		units[p.ID[:strings.Index(p.ID, "-txn-")]] = true
	}
	if len(units) < 2 {
		t.Fatalf("promises landed on units %v; the test needs several", units)
	}
	var pending []string
	for _, p := range k.Pending() {
		pending = append(pending, p.ID)
	}
	if !slices.Equal(pending, made) {
		t.Fatalf("Pending order %v, want the order made %v", pending, made)
	}
}

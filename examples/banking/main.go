// Command banking runs the insert-only account scenario of principle 2.8 on
// a replicated kernel: deposits and withdrawals are recorded as operations
// (not just resulting balances), and the primary ships its log of them to a
// standby. A partition cuts the standby off while the primary keeps serving
// (principle 2.11); after the heal the standby catches up from the primary's
// log, and the promoted standby holds exactly the primary's balance and
// entries — no operation is lost.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	standby, err := replica.NewStandby(replica.StandbyOptions{
		Self: "standby", Net: net, Backends: []storage.Backend{storage.NewMemory()},
	})
	if err != nil {
		log.Fatalf("standby: %v", err)
	}
	k, err := repro.Bootstrap(repro.Options{Node: "primary", Replication: &repro.ReplicationOptions{
		Standbys: []clock.NodeID{"standby"}, Ack: replica.AckAsync, Net: net,
	}}, repro.StandardTypes()...)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}

	account := repro.Key{Type: "Account", ID: "ACC-1"}
	write := func(op workload.BankOp) {
		if _, err := k.Update(account, op.Ops()...); err != nil {
			log.Fatalf("write: %v", err)
		}
	}
	// head is the primary's newest LSN: what a caught-up standby holds.
	head := func() uint64 {
		recs := k.UnitTail(0, 0, 0)
		return recs[len(recs)-1].LSN
	}

	// Normal operation: every commit ships to the standby asynchronously.
	gen := workload.NewBanking(99, 1, 1.1)
	for i := 0; i < 10; i++ {
		op := gen.Next()
		op.Account = account
		write(op)
	}
	for deadline := time.Now().Add(2 * time.Second); standby.Watermark(0) != head(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("standby stuck at LSN %d of %d on a healthy network", standby.Watermark(0), head())
		}
	}
	fmt.Printf("after 10 operations the standby holds the primary's log up to LSN %d\n", head())

	// Partition: the primary keeps serving its users (principle 2.11).
	fmt.Println("partitioning the standby away from the primary ...")
	net.Partition([]clock.NodeID{"primary"}, []clock.NodeID{"standby"})
	write(workload.BankOp{Account: account, Amount: 100, EntryID: "partition-dep", Describe: "deposit 100 during partition"})
	write(workload.BankOp{Account: account, Amount: -40, EntryID: "partition-wd", Describe: "withdrawal 40 during partition"})
	primary, err := k.Read(account)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	lagging := standbyView(standby, account)
	fmt.Printf("during the partition: primary balance=%.2f (LSN %d), standby balance=%.2f (LSN %d)\n",
		primary.Float("balance"), head(), lagging.Float("balance"), standby.Watermark(0))

	// Heal: the standby pulls what it missed from the primary's log.
	net.Heal()
	n, err := standby.CatchUp("primary", 0)
	if err != nil {
		log.Fatalf("catch-up: %v", err)
	}
	fmt.Printf("after healing: the standby caught up %d records to LSN %d\n", n, standby.Watermark(0))

	// Failover: the promoted standby must hold every operation (principle 2.8).
	wantBalance, wantEntries := primary.Float("balance"), len(primary.LiveChildren("entries"))
	k.Close()
	promoted, err := core.PromoteStandby(standby, nil, repro.Options{Node: "standby"})
	if err != nil {
		log.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	if err := promoted.RegisterTypes(repro.StandardTypes()...); err != nil {
		log.Fatalf("register: %v", err)
	}
	final, err := promoted.Read(account)
	if err != nil {
		log.Fatalf("promoted read: %v", err)
	}
	gotBalance, gotEntries := final.Float("balance"), len(final.LiveChildren("entries"))
	fmt.Printf("promoted standby: balance=%.2f, entries=%d (primary had %.2f, %d)\n",
		gotBalance, gotEntries, wantBalance, wantEntries)
	if gotBalance != wantBalance || gotEntries != wantEntries {
		log.Fatalf("promoted standby lost operations")
	}
}

// standbyView replays a copy of the standby's received log into a throwaway
// store: the account as the standby would serve it if promoted now.
func standbyView(sb *replica.Standby, key repro.Key) *repro.State {
	recs, err := replica.TailAfter(sb.Backends()[0], 0, 0)
	if err != nil {
		log.Fatalf("standby log: %v", err)
	}
	copied := storage.NewMemory()
	if err := copied.AppendBatch(recs); err != nil {
		log.Fatalf("copy: %v", err)
	}
	db, err := lsdb.Recover(lsdb.Options{Backend: copied}, workload.AccountType())
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	st, _, err := db.Current(key)
	if err != nil {
		log.Fatalf("standby read: %v", err)
	}
	return st
}

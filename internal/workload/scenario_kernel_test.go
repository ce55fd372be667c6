package workload_test

// The business scenarios must behave identically regardless of the storage
// posture underneath the kernel: the in-memory seed configuration, and the
// production-shaped one — tiered LSM storage over a durable WAL. Each configuration runs the same scenario mix and
// asserts the same invariants; the durable configuration additionally closes
// and recovers the kernel mid-check to prove the scenario state survives.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/workload"
)

// scenarioConfig is one storage posture the scenario suite runs under.
type scenarioConfig struct {
	name    string
	durable bool // close + recover and re-verify
	opts    func(t *testing.T) core.Options
}

func scenarioConfigs() []scenarioConfig {
	return []scenarioConfig{
		{
			name: "memory",
			opts: func(t *testing.T) core.Options {
				return core.Options{Node: "wl-mem", Units: 2}
			},
		},
		{
			name:    "tiered+groupcommit",
			durable: true,
			opts: func(t *testing.T) core.Options {
				return core.Options{
					Node:  "wl-tiered",
					Units: 2,
					// Durable WAL + LSM tier, aggressive thresholds so a
					// few hundred scenario operations exercise checkpoints
					// and background flushes. The subtest keeps its name from
					// when this posture also batched appends.
					DataDir:         t.TempDir(),
					CheckpointEvery: 64,
					FlushBytes:      16 * 1024,
				}
			},
		},
	}
}

func bootScenarioKernel(t *testing.T, opts core.Options) *core.Kernel {
	t.Helper()
	k, err := core.Bootstrap(opts, workload.Types()...)
	if err != nil {
		t.Fatalf("bootstrap %s: %v", opts.Node, err)
	}
	k.Start()
	return k
}

func TestScenariosAcrossStorageConfigs(t *testing.T) {
	for _, cfg := range scenarioConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts(t)
			k := bootScenarioKernel(t, opts)
			closed := false
			defer func() {
				if !closed {
					k.Close()
				}
			}()

			// Banking: deposits/withdrawals with insert-only entries; the
			// balance aggregate must equal the sum of recorded operations.
			bank := workload.NewBanking(11, 16, 1.2)
			balances := map[string]float64{}
			for i := 0; i < 300; i++ {
				op := bank.Next()
				if _, err := k.Update(op.Account, op.Ops()...); err != nil {
					t.Fatalf("banking op %d: %v", i, err)
				}
				balances[op.Account.ID] += op.Amount
			}

			// Order-to-cash: forward references (opportunity before its
			// customer) must be accepted as managed warnings, not rejected.
			crm := workload.NewOrderToCash(7, 0.5)
			cases := 0
			for c := 0; c < 40; c++ {
				for _, ev := range crm.NextCase() {
					if _, err := k.Update(ev.Key, ev.Ops...); err != nil {
						t.Fatalf("crm %s %s: %v", ev.Kind, ev.Key, err)
					}
				}
				cases++
			}

			// Inventory: sustained pick ratio > 0.5 drives items negative;
			// the kernel records the movements instead of refusing them.
			inv := workload.NewInventory(3, 8, 1.3, 0.7)
			onhand := map[string]int64{}
			for i := 0; i < 300; i++ {
				mv := inv.Next()
				if _, err := k.Update(mv.Item, mv.Ops()...); err != nil {
					t.Fatalf("inventory move %d: %v", i, err)
				}
				onhand[mv.Item.ID] += mv.Qty
			}

			// Bookstore: demand 40 against stock 25 — every order is taken
			// and the oversell is visible in the final stock.
			books := workload.NewBookstore(25, 40)
			if _, err := k.Update(books.Title, entity.Set("title", "bestseller"), entity.Delta("stock", float64(books.Stock))); err != nil {
				t.Fatal(err)
			}
			for _, o := range books.Orders() {
				if _, err := k.Update(o.Book, entity.Delta("stock", -float64(o.Qty)).Described("order by "+o.Customer)); err != nil {
					t.Fatalf("book order %s: %v", o.Customer, err)
				}
			}

			k.Drain()
			verify := func(t *testing.T, k *core.Kernel, recovered bool) {
				t.Helper()
				for id, want := range balances {
					st, err := k.Read(entity.Key{Type: "Account", ID: id})
					if err != nil {
						t.Fatalf("read %s: %v", id, err)
					}
					if got := st.Float("balance"); got != want {
						t.Fatalf("%s balance = %g, want %g", id, got, want)
					}
				}
				for id, want := range onhand {
					st, err := k.Read(entity.Key{Type: "Inventory", ID: id})
					if err != nil {
						t.Fatalf("read %s: %v", id, err)
					}
					if got := st.Int("onhand"); got != want {
						t.Fatalf("%s onhand = %d, want %d", id, got, want)
					}
				}
				for c := 1; c <= cases; c++ {
					st, err := k.Read(entity.Key{Type: "Order", ID: fmt.Sprintf("O-%05d", c)})
					if err != nil {
						t.Fatalf("read order %d: %v", c, err)
					}
					if st.StringField("status") != "OPEN" {
						t.Fatalf("order %d status = %q", c, st.StringField("status"))
					}
				}
				st, err := k.Read(books.Title)
				if err != nil {
					t.Fatal(err)
				}
				if got := st.Int("stock"); got != books.Stock-40 {
					t.Fatalf("bestseller stock = %d, want %d (oversell recorded)", got, books.Stock-40)
				}
				// History must stay queryable. Before recovery the live
				// version log is present; after recovery the checkpoint has
				// folded it into the archived summary, so an empty Versions
				// slice is the documented (and separately pinned) contract.
				h, err := k.History(entity.Key{Type: "Book", ID: "bestseller"})
				if err != nil {
					t.Fatal(err)
				}
				if !recovered && len(h.Versions) == 0 {
					t.Fatal("bestseller history empty before recovery")
				}
			}
			verify(t, k, false)

			if cfg.durable {
				// Recovery: reopen over the same WAL + SSTables and re-run
				// the exact same checks against the recovered kernel.
				k.Close()
				closed = true
				k2, err := core.Bootstrap(opts, workload.Types()...)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				defer k2.Close()
				k2.Start()
				verify(t, k2, true)
			}
		})
	}
}

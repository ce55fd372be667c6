// Command ordertocash runs the CRM-to-ERP data lifecycle of principle 2.2:
// leads are entered first, opportunities and orders may reference customers
// that have not been entered yet, and the kernel accepts the out-of-order
// data as managed exceptions instead of refusing it. A process pipeline
// (order.created -> inventory.reserve -> shipment.create) then drives the
// back-end steps, one focused transaction per step (principles 2.4-2.6).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	k, err := repro.Bootstrap(repro.Options{Node: "o2c", Units: 3}, repro.StandardTypes()...)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	defer k.Close()

	// Back-end pipeline: each step updates exactly one entity and emits the
	// event that schedules the next step.
	pipeline := repro.NewProcess("order-to-cash")
	pipeline.Step("order.created", func(ctx *repro.StepContext) error {
		if err := ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "CONFIRMED")); err != nil {
			return err
		}
		ctx.Emit(repro.Event{
			Name:   "inventory.reserve",
			Entity: repro.Key{Type: "Inventory", ID: "widget"},
			Data:   map[string]interface{}{"order": ctx.Event.Entity.ID},
		})
		ctx.Audit("order %s confirmed", ctx.Event.Entity.ID)
		return nil
	})
	pipeline.Step("inventory.reserve", func(ctx *repro.StepContext) error {
		order := fmt.Sprint(ctx.Event.Data["order"])
		if err := ctx.Txn.Update(ctx.Event.Entity,
			repro.Delta("onhand", -1).Described("reserved 1 widget for "+order)); err != nil {
			return err
		}
		ctx.Emit(repro.Event{Name: "shipment.create", Entity: repro.Key{Type: "Order", ID: order}})
		return nil
	})
	pipeline.Step("shipment.create", func(ctx *repro.StepContext) error {
		return ctx.Txn.Update(ctx.Event.Entity, repro.Set("status", "SHIPMENT-PLANNED"))
	})
	if err := k.DefineProcess(pipeline); err != nil {
		log.Fatalf("define process: %v", err)
	}

	// Front-end data entry, 30% of cases out of order.
	gen := workload.NewOrderToCash(2026, 0.3)
	const cases = 20
	for i := 0; i < cases; i++ {
		for _, ev := range gen.NextCase() {
			if _, err := k.Update(ev.Key, ev.Ops...); err != nil {
				log.Fatalf("data entry rejected (%s): %v", ev.Key, err)
			}
			if ev.Kind == "order" {
				if err := k.Submit(repro.Event{Name: "order.created", Entity: ev.Key, TxnID: "entry-" + ev.Key.ID}); err != nil {
					log.Fatalf("submit: %v", err)
				}
			}
		}
	}

	steps := k.Drain()
	stats := k.ProcessStats()
	fmt.Printf("entered %d business cases; executed %d process steps (%d events emitted)\n",
		cases, steps, stats.EventsEmitted)
	fmt.Printf("managed constraint violations (out-of-order references): %d\n", k.WarningCount())

	inv, err := k.Read(repro.Key{Type: "Inventory", ID: "widget"})
	if err != nil {
		log.Fatalf("read inventory: %v", err)
	}
	fmt.Printf("widget on-hand after reservations: %d (negative stock is tracked, not refused)\n", inv.Int("onhand"))

	confirmed := 0
	k.Query("Order", func(st *repro.State) bool {
		if st.StringField("status") == "SHIPMENT-PLANNED" {
			confirmed++
		}
		return true
	})
	fmt.Printf("orders with planned shipments: %d of %d\n", confirmed, cases)
}

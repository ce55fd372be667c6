// Command bookstore runs the overbooking scenario of principle 2.9: order
// entry gives every customer an immediate, durable, *tentative* confirmation;
// fulfillment later reconciles the promises against the five copies that
// actually exist, keeps them first-come-first-served and apologises to the
// rest — the separation of Order Entry from Fulfillment that makes the user
// experience intelligible.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	k, err := repro.Bootstrap(repro.Options{Node: "bookstore"}, repro.StandardTypes()...)
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	defer k.Close()

	const stock, demand = 5, 9
	title := repro.Key{Type: "Book", ID: "bestseller"}
	if _, err := k.Update(title, repro.Set("title", "Principles for Inconsistency"), repro.Set("stock", stock)); err != nil {
		log.Fatalf("seed: %v", err)
	}

	// Order entry: every order is accepted immediately as a tentative
	// promise; the customer sees "your order has been received".
	store := workload.NewBookstore(stock, demand)
	for _, order := range store.Orders() {
		p, err := k.UpdateTentative(title, order.Customer, "order-confirmation", float64(order.Qty),
			repro.Delta("stock", -float64(order.Qty)).Described("tentative sale to "+order.Customer))
		if err != nil {
			log.Fatalf("order entry: %v", err)
		}
		fmt.Printf("order entry: %s -> order received (promise %s)\n", order.Customer, p.ID)
	}
	if pending := k.Pending(); len(pending) != len(store.Orders()) {
		log.Fatalf("order entry: %d promises pending, want one per order", len(pending))
	}
	state, _ := k.Read(title)
	fmt.Printf("\nsubjective stock after order entry: %d (tentative=%v)\n", state.Int("stock"), state.Tentative)

	// Fulfillment: reconcile against the copies that really exist.
	kept, apologies, err := k.ResolveOverbooking(title, stock, "only 5 copies were in stock", "full refund and 10% voucher")
	if err != nil {
		log.Fatalf("fulfillment: %v", err)
	}
	fmt.Printf("\nfulfillment kept %d promises and issued %d apologies:\n", kept, len(apologies))
	for _, a := range apologies {
		fmt.Println("  " + a.String())
	}
	// The apology rate, broken / settled, from the kernel's counters.
	settled := k.Metrics().Counter("promise.kept").Value() + k.Metrics().Counter("promise.broken").Value()
	rate := float64(k.Metrics().Counter("promise.broken").Value()) / float64(settled)
	state, _ = k.Read(title)
	fmt.Printf("\nfinal stock: %d, apology rate: %.2f\n", state.Int("stock"), rate)
}

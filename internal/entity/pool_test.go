package entity

import (
	"reflect"
	"testing"
)

// TestRecycleOwnershipSafety is the aliasing check for the chunk free list: a
// state whose chunks were handed to a clone must not recycle them, and a
// recycled private state must not leave its rows reachable through anything
// still live.
func TestRecycleOwnershipSafety(t *testing.T) {
	typ := orderType()
	base := NewState(Key{Type: "Order", ID: "O-1"})
	s1, _, err := Apply(typ, base, []Op{
		Set("customer", "C-1"),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": int64(2)}),
		InsertChild("lineitems", "L2", Fields{"product": "gadget", "qty": int64(5)}),
	}, Managed)
	if err != nil {
		t.Fatal(err)
	}

	// Clone revokes chunk ownership on both sides: recycling the source must
	// be a no-op and the clone's rows must stay intact afterwards.
	s2 := s1.Clone()
	wantRows := append([]Child(nil), s2.Children("lineitems")...)
	before := chunkPoolStats()
	s1.Recycle()
	if got := chunkPoolStats().Recycled; got != before.Recycled {
		t.Fatalf("clone-shared chunks recycled: %d -> %d", before.Recycled, got)
	}
	// Churn the pool so any wrongly-recycled chunk would be reused and
	// overwritten before the check.
	for i := 0; i < 8; i++ {
		ck := takeChunk(chunkSize)
		for j := range ck.rows {
			ck.rows[j] = Child{ID: "poison", Fields: Fields{"product": "poison"}}
		}
		putChunk(ck)
	}
	if got := s2.Children("lineitems"); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("clone rows corrupted after source Recycle:\nwant %v\n got %v", wantRows, got)
	}

	// A frozen state never recycles: its chunks may be shared arbitrarily.
	s2.Freeze()
	before = chunkPoolStats()
	s2.Recycle()
	if got := chunkPoolStats().Recycled; got != before.Recycled {
		t.Fatalf("frozen state recycled chunks: %d -> %d", before.Recycled, got)
	}
	if got := s2.Children("lineitems"); !reflect.DeepEqual(got, wantRows) {
		t.Fatal("Recycle on a frozen state emptied it")
	}
}

// TestRecyclePrivateState: a never-shared apply target releases its copied
// chunks, and the counters see the round trip.
func TestRecyclePrivateState(t *testing.T) {
	typ := orderType()
	before := chunkPoolStats()
	s, _, err := Apply(typ, NewState(Key{Type: "Order", ID: "O-2"}), []Op{
		Set("customer", "C-2"),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": int64(1)}),
	}, Managed)
	if err != nil {
		t.Fatal(err)
	}
	s.Recycle()
	after := chunkPoolStats()
	if after.Recycled <= before.Recycled {
		t.Fatalf("private chunks not recycled: %+v -> %+v", before, after)
	}
	// The emptied state holds nothing that could alias a future reuse.
	if len(s.Collections()) != 0 || s.Fields != nil {
		t.Fatalf("recycled state not emptied: %v / %v", s.Collections(), s.Fields)
	}
	// nil is a no-op, not a panic.
	var nilState *State
	nilState.Recycle()
}

// TestChunkPoolRoundTrip pins putChunk's scrubbing contract: a retired chunk
// comes back zero-length with every row reference dropped, and a reuse
// request wider than the recycled capacity falls back to a fresh allocation.
func TestChunkPoolRoundTrip(t *testing.T) {
	ck := takeChunk(3)
	if len(ck.rows) != 3 {
		t.Fatalf("takeChunk(3) gave %d rows", len(ck.rows))
	}
	ck.rows[0] = Child{ID: "x", Fields: Fields{"f": "v"}}
	before := chunkPoolStats()
	putChunk(ck)
	if got := chunkPoolStats().Recycled; got != before.Recycled+1 {
		t.Fatalf("putChunk not counted: %d -> %d", before.Recycled, got)
	}
	rows := ck.rows[:cap(ck.rows)]
	for i := range rows {
		if rows[i].ID != "" || rows[i].Fields != nil {
			t.Fatalf("row %d not scrubbed: %+v", i, rows[i])
		}
	}
	// Under -race sync.Pool intentionally drops items, so reuse is asserted
	// only structurally: whatever takeChunk returns must have the requested
	// length and scrubbed rows.
	ck2 := takeChunk(2)
	if len(ck2.rows) != 2 || ck2.rows[0].ID != "" || ck2.rows[1].Fields != nil {
		t.Fatalf("takeChunk after recycle returned dirty rows: %+v", ck2.rows)
	}
}

// TestApplyFailureRecyclesTarget: the chained-apply error path hands its
// abandoned copy back (see Apply), so repeated validation failures do not
// leak one chunk copy each.
func TestApplyFailureRecyclesTarget(t *testing.T) {
	typ := orderType()
	s, _, err := Apply(typ, NewState(Key{Type: "Order", ID: "O-3"}), []Op{
		Set("customer", "C-3"),
		InsertChild("lineitems", "L1", Fields{"product": "widget"}),
	}, Managed)
	if err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	before := chunkPoolStats()
	// Second op fails validation after the first copied the chunk; the
	// half-applied target must be recycled by Apply itself.
	if _, _, err := Apply(typ, s, []Op{
		InsertChild("lineitems", "L2", Fields{"product": "gadget"}),
		{Kind: OpSet, Field: "no-such-field", Value: "x"},
	}, Strict); err == nil {
		t.Fatal("invalid op accepted in strict mode")
	}
	after := chunkPoolStats()
	if after.Recycled <= before.Recycled {
		t.Fatalf("failed apply leaked its private copy: %+v -> %+v", before, after)
	}
}

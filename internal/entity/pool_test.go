package entity

import (
	"reflect"
	"sync"
	"testing"
)

// retired reports whether putChunk took ck: a retired chunk holds no rows,
// and no chunk of a live collection is ever empty.
func retired(ck *chunk) bool { return len(ck.rows) == 0 }

// chunksOf returns the chunks of s's collection name.
func chunksOf(s *State, name string) []*chunk {
	if c := s.children[name]; c != nil {
		return append([]*chunk(nil), c.chunks...)
	}
	return nil
}

// freshPool empties the free list for a test and restores it afterwards.
func freshPool(t *testing.T) {
	t.Helper()
	chunkPool = sync.Pool{}
	t.Cleanup(func() { chunkPool = sync.Pool{} })
}

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
	shared := chunksOf(s1, "lineitems")
	s1.Recycle()
	for i, ck := range shared {
		if retired(ck) {
			t.Fatalf("clone-shared chunk %d recycled", i)
		}
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
	s2.Recycle()
	for i, ck := range chunksOf(s2, "lineitems") {
		if retired(ck) {
			t.Fatalf("frozen state recycled chunk %d", i)
		}
	}
	if got := s2.Children("lineitems"); !reflect.DeepEqual(got, wantRows) {
		t.Fatal("Recycle on a frozen state emptied it")
	}
}

// TestRecyclePrivateState: a never-shared apply target releases its copied
// chunks, each of them retired into the free list.
func TestRecyclePrivateState(t *testing.T) {
	typ := orderType()
	s, _, err := Apply(typ, NewState(Key{Type: "Order", ID: "O-2"}), []Op{
		Set("customer", "C-2"),
		InsertChild("lineitems", "L1", Fields{"product": "widget", "qty": int64(1)}),
	}, Managed)
	if err != nil {
		t.Fatal(err)
	}
	private := chunksOf(s, "lineitems")
	if len(private) == 0 {
		t.Fatal("the apply target holds no chunk")
	}
	s.Recycle()
	for i, ck := range private {
		if !retired(ck) {
			t.Fatalf("private chunk %d not recycled: %+v", i, ck.rows)
		}
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
	putChunk(ck)
	if !retired(ck) {
		t.Fatalf("putChunk left %d rows", len(ck.rows))
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
	if wide := takeChunk(cap(ck.rows) + 1); len(wide.rows) != cap(ck.rows)+1 {
		t.Fatalf("takeChunk(%d) gave %d rows", cap(ck.rows)+1, len(wide.rows))
	}
}

// TestApplyFailureRecyclesTarget: the chained-apply error path hands its
// abandoned copy back (see Apply), so repeated validation failures do not
// leak one chunk copy each. The copy is Apply's own, so it is seen where it
// goes: into an otherwise empty free list. Under -race sync.Pool drops a
// quarter of what it is given, so the failure is provoked until a chunk
// arrives.
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
	freshPool(t)
	for attempt := 0; ; attempt++ {
		// Second op fails validation after the first copied the chunk; the
		// half-applied target must be recycled by Apply itself.
		if _, _, err := Apply(typ, s, []Op{
			InsertChild("lineitems", "L2", Fields{"product": "gadget"}),
			{Kind: OpSet, Field: "no-such-field", Value: "x"},
		}, Strict); err == nil {
			t.Fatal("invalid op accepted in strict mode")
		}
		if v := chunkPool.Get(); v != nil {
			if ck := v.(*chunk); !retired(ck) || cap(ck.rows) < 2 {
				t.Fatalf("the free list holds a chunk of %d rows (cap %d), want the retired copy", len(ck.rows), cap(ck.rows))
			}
			return
		}
		if attempt == 32 {
			t.Fatal("failed apply leaked its private copy: nothing reached the free list")
		}
	}
}

// Chunk recycling: a free list of retired child-row chunks.
//
// Copy-on-write discards chunks constantly — every Apply that touches a
// collection copies the chunks it writes, and short-lived states (a flush
// capture's scratch rollup, an append the log refused, a
// strict-mode validation failure) abandon those copies immediately. The
// free list gives the copy path a second life for the backing arrays instead
// of a fresh allocation per copy.
//
// Safety rests on the ownership protocol: a chunk is provably private — and
// therefore recyclable — only when its state is mutable (never frozen, so
// never shared with readers), the state owns the collection header
// (s.owned[name]; Clone revokes this on both sides), and the header owns the
// chunk (c.owned[ci], set only by copyChunk/appendRow in this version).
// State.Recycle releases exactly that set and nothing else; frozen states
// no-op.
package entity

import "sync"

var chunkPool sync.Pool // of *chunk with rows resliced to 0

// takeChunk returns a chunk with rows length n: a recycled chunk when one
// with enough capacity is available, a fresh exact-size allocation otherwise
// (narrow collections keep paying only for their width, as before).
func takeChunk(n int) *chunk {
	if v := chunkPool.Get(); v != nil {
		ck := v.(*chunk)
		if cap(ck.rows) >= n {
			ck.rows = ck.rows[:n]
			return ck
		}
		// Too narrow for this copy; let it go rather than scanning the pool.
	}
	return &chunk{rows: make([]Child, n)}
}

// putChunk retires a privately-owned chunk into the free list, dropping
// every row reference first so recycled arrays never pin field maps. A
// retired chunk holds no rows.
func putChunk(ck *chunk) {
	rows := ck.rows[:cap(ck.rows)]
	for i := range rows {
		rows[i] = Child{}
	}
	ck.rows = rows[:0]
	chunkPool.Put(ck)
}

// Recycle retires the chunks this state privately owns into the free list
// and empties the state. Call it only on a mutable state that is being
// discarded without ever having been frozen or returned to a caller — the
// flush pipeline's scratch rollups and abandoned apply targets. Frozen
// states (and nil) are no-ops: their chunks may be shared arbitrarily.
func (s *State) Recycle() {
	if s == nil || s.frozen {
		return
	}
	for name, own := range s.owned {
		if !own {
			continue
		}
		c := s.children[name]
		if c == nil {
			continue
		}
		for ci, ck := range c.chunks {
			if ci < len(c.owned) && c.owned[ci] {
				putChunk(ck)
			}
		}
	}
	s.children = nil
	s.owned = nil
	s.Fields = nil
}

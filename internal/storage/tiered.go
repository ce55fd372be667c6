package storage

import "repro/internal/entity"

// Tiered is the seam between the store and an LSM-tiered persistence engine
// (internal/lsm), and the one way a store's settled history leaves its log.
// A tiered backend persists by incremental flushes: the store captures the
// settled summary state of its dirty entities under the shard locks (cheap,
// zero-copy) and a background flusher turns the capture into an immutable
// sorted table, after which the WAL segments the table covers are pruned. The
// store detects the capability with a type assertion on Options.Backend.
type Tiered interface {
	Backend

	// SealWAL rotates the backing log's active segment so every record
	// appended so far lives in sealed, immutable segments, and returns the
	// index of the last sealed segment. A flush capture taken after SealWAL
	// covers everything in the sealed prefix, which FlushTable may therefore
	// prune once the table is durable.
	SealWAL() (uint64, error)

	// FlushTable durably writes one immutable level-0 table from a flush
	// capture — per dirty entity a settled summary (KindSummary, with
	// Horizon) and/or the detail records above the summary's horizon
	// (KindAppend), sorted by key, each framed from its Payload when it
	// carries one — then prunes the backing log through the sealed segment
	// boundary. watermark is the highest LSN the capture
	// observed. An error means the table did not land; the log is untouched
	// and the caller re-arms the capture for the next attempt.
	FlushTable(entries []WALRecord, watermark, boundary uint64) error

	// LookupSummary returns the newest durable summary for key, searching
	// tables newest-to-oldest behind bloom filters, or (nil, nil) when no
	// table holds one. This is the cold read path for entities evicted from
	// the in-memory store.
	LookupSummary(key entity.Key) (*WALRecord, error)

	// SetTxnFloor raises the txn-id floor (lsdb.DB.TxnFloor) the backend
	// persists with the next table set it installs — no later than a flush
	// prunes the log segments whose records carried those ids — and
	// TxnFloor returns the highest floor it holds, so a recovered store's
	// transaction ids resume past every id the summarised history held.
	SetTxnFloor(n uint64)
	TxnFloor() uint64

	// TieredStats reports table/level layout and flush/compaction/bloom
	// counters for operational surfaces.
	TieredStats() TieredStats
}

// TieredStats is a point-in-time snapshot of a tiered backend's shape and
// counters.
type TieredStats struct {
	Levels    int    // distinct populated levels
	Tables    int    // total live tables
	L0Tables  int    // tables not yet compacted into a leveled run
	TableKeys uint64 // sum of per-table key counts (keys in several tables count once each)
	Bytes     int64  // total bytes of live table files

	BloomHits  uint64 // lookups a bloom filter passed through to a table read that found the key
	BloomSkips uint64 // table reads avoided because the bloom filter said absent
	BloomFalse uint64 // bloom said maybe, but the table did not hold the key

	Flushes           uint64 // tables successfully flushed
	FlushFailures     uint64 // flush attempts that did not land a table
	Compactions       uint64 // successful compaction passes
	CompactFailures   uint64 // compaction passes that failed (inputs retained)
	CompactionBacklog int    // level-0 tables at or beyond the compaction trigger
	WALPruneSkips     uint64 // flushes that landed but retained the log tail (lagging standby still streams it)
	WALPruneErrors    uint64 // flushes that landed but whose prune attempt failed
}

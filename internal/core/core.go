// Package core implements the kernel of the inconsistency-principled data
// management system: it composes the log-structured storage, serialization
// units, transaction managers, event queues, the process-step engine,
// deferred secondary data, logical locks, tentative operations and apologies,
// and online schema migration into a single embeddable component.
//
// The programming model follows principles 2.4–2.6 (SOUPS): applications are
// written as process steps, each containing at most one transaction that
// updates one entity and emits events; the kernel routes entities to
// serialization units, schedules steps, maintains aggregates asynchronously
// and handles constraint violations and conflicts as managed exceptions
// rather than refusals.
//
// Scheduling: each serialization unit runs its own process engine, and
// Start launches Options.Workers workers per unit, each claiming whole
// entities from the unit queue's per-entity mailboxes (see internal/process
// and internal/queue). Steps for different entities run concurrently across
// and within units, while every entity's steps execute serially in enqueue
// order, the guarantee the paper's at-least-once-plus-idempotence recipe
// depends on. ProcessStats aggregates the scheduling counters (entities
// that moved between workers, deepest mailbox, deliveries popped in place)
// across units; docs/CONCURRENCY.md states the full ordering contract.
package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/aggregate"
	"repro/internal/apology"
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/txn"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("core: kernel closed")

// Options configure a Kernel.
type Options struct {
	// Node names this kernel instance.
	Node clock.NodeID
	// Units is the number of serialization units (partitions). Default 1.
	Units int
	// GroupCommit and MaxAppendBatch select nothing: every append commits
	// through one per-append cycle. They are declared only because the
	// repository benchmark (bench/) still sets them, and go with the next
	// change to it. No other code sets them.
	GroupCommit    bool
	MaxAppendBatch int
	// DataDir, when non-empty, makes the kernel durable: every serialization
	// unit opens a segmented write-ahead log in its own subdirectory
	// (unit-0, unit-1, ...), commits append to it (one framed batch write —
	// and with Fsync always, one fsync — per commit cycle). The log is tiered:
	// flushes write settled state to SSTables beside it and prune the
	// segments they cover, and Open recovers each unit from its newest
	// tables plus the log tail. The unit count must match across restarts —
	// the directory layout is per-unit.
	DataDir string
	// Fsync selects the durability/latency trade-off of the write-ahead log
	// (only meaningful with DataDir): storage.SyncAlways forces every commit
	// cycle, storage.SyncOS (default) leaves flushing to the page cache.
	Fsync storage.SyncMode
	// CheckpointEvery triggers a background flush of a unit's store after
	// roughly this many records since the last one (only meaningful with
	// DataDir; default 4096, negative disables the record trigger). Flushes
	// bound recovery to the tables plus the post-flush log tail.
	CheckpointEvery int
	// FlushBytes triggers a tiered background flush once roughly this many
	// bytes of record payload have been committed since the last one (only
	// meaningful with DataDir; default 4 MiB, negative disables the byte
	// trigger — the CheckpointEvery record trigger still applies).
	FlushBytes int64
	// CompactAfter is how many level-0 SSTables accumulate before the
	// background compactor merges them into the level-1 run (only meaningful
	// with DataDir; default 4).
	CompactAfter int
	// CompactThrottle is the pause the compactor takes per 64 KiB of merged
	// output (it also waits while a flush is writing) so background merging
	// never monopolises the disk against foreground commits (only meaningful
	// with DataDir; default 500µs, negative disables throttling).
	CompactThrottle time.Duration
	// CollapseVertical enables inline execution of follow-up steps.
	CollapseVertical bool
	// Workers is the size of each unit's step pool when Start is used
	// (default 2). Workers claim whole entities, so raising it scales
	// cross-entity step throughput with cores without ever reordering one
	// entity's steps.
	Workers int
	// MaxQueueDepth is the admission-control high-water mark on each unit's
	// event queue: a Submit that would grow a unit's backlog past it is
	// shed with an error wrapping queue.ErrOverloaded (soupsd maps it to
	// 503 + Retry-After). Redeliveries of accepted work are exempt, so
	// backpressure never reorders or drops per-entity work already taken in.
	// Zero disables shedding.
	MaxQueueDepth int
	// RearmAfter is how long a unit stays in retryable degraded read-only
	// mode (an ENOSPC-style append failure) before the next write probes the
	// backend again (default 1s; see lsdb.Options.RearmAfter).
	RearmAfter time.Duration
	// PromiseLimit caps how many pending promises one entity may carry at
	// once: UpdateTentative refuses further promises on that entity with
	// apology.ErrPromiseLimit until some settle. Every pending promise is a
	// potential apology; this is the guardrail against unbounded
	// over-promising. Zero means unlimited.
	PromiseLimit int
	// Replication ships every unit's durable log to standby replicas: each
	// unit's store gets a commit sink that forwards its commit cycles under
	// the configured ack mode (a compaction horizon stays local). Nil
	// disables replication.
	Replication *ReplicationOptions
	// UnitBackends, when non-nil, supplies the per-unit storage backends
	// directly instead of opening WALs under DataDir: unit i is recovered
	// from UnitBackends[i], and its length must equal Units. This is how a
	// promoted standby becomes a kernel — its received logs are handed here
	// — and how tests run durable semantics on in-memory backends. Takes
	// precedence over DataDir.
	UnitBackends []storage.Backend
}

// ReplicationOptions configure the primary side of WAL shipping (see
// internal/replica: the shipped stream is the storage log itself, and a
// standby is promoted by replaying it).
type ReplicationOptions struct {
	// Self is this node's id on the transport; defaults to Options.Node.
	Self clock.NodeID
	// Standbys are the peers every commit cycle ships to.
	Standbys []clock.NodeID
	// Ack selects the durability/latency trade-off: AckAsync (default),
	// AckSync or AckQuorum. Under the synchronous modes a failed ship
	// surfaces to the writer as an error wrapping replica.ErrStandbyAcks —
	// the write is still committed and durable locally (post-install
	// indeterminacy).
	Ack replica.AckMode
	// Timeout bounds each synchronous ship (default 500ms).
	Timeout time.Duration
	// Transport moves the batches; when nil and Net is set a
	// netsim transport is used. cmd/soupsd supplies an HTTP transport.
	Transport replica.Transport
	// Net, when set, also registers a catch-up handler so standbys can pull
	// missing log tails from this kernel.
	Net *netsim.Network
	// Window bounds each standby lane's in-flight batch queue (default
	// 128). The commit path never blocks on a full lane: the overflow
	// counts as that standby's ship failure and heals through catch-up.
	Window int
	// CatchupChunk caps how many appended records one catch-up response
	// carries (default 512); standbys stream the tail chunk by chunk.
	CatchupChunk int
}

func (o *Options) fill() {
	if o.Node == "" {
		o.Node = "kernel"
	}
	if o.Units <= 0 {
		o.Units = 1
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	if o.CheckpointEvery < 0 {
		o.CheckpointEvery = 0
	}
}

// unit bundles the per-serialization-unit machinery.
type unit struct {
	id     partition.UnitID
	db     *lsdb.DB
	mgr    *txn.Manager
	queue  *queue.Queue
	engine *process.Engine
	maint  *aggregate.Maintainer
}

// Kernel is one node of the inconsistency-principled DMS.
type Kernel struct {
	opts Options

	mu       sync.Mutex
	closed   bool
	units    map[partition.UnitID]*unit
	byIndex  []*unit // creation order: byIndex[i] owns unit-i (replication's unit numbering)
	shipper  *replica.Shipper
	unitIDs  []partition.UnitID
	locator  *partition.HashLocator
	hlc      *clock.HLC
	registry *migrate.Registry
	metrics  *metrics.Registry
	inst     instruments
	started  bool

	// The newest maxWarnings managed violations, a ring under its own lock:
	// a long-lived node must not grow with every dangling reference, and a
	// POST that records one must not take the kernel-wide mu. The running
	// total is the constraint.managed counter.
	warnMu   sync.Mutex
	warnings []entity.Warning
	warnNext int // slot the next warning overwrites once the ring is full
}

// instruments are the kernel's metric handles, resolved once in Open so no
// commit looks a name up in the registry (whose map lookups take its mutex).
type instruments struct {
	txnLatency                                              *metrics.Histogram
	txnCommitted, txnFailed                                 *metrics.Counter
	promiseMade, promiseRefused, promiseKept, promiseBroken *metrics.Counter
	constraintManaged, apologyIssued                        *metrics.Counter
}

func resolveInstruments(r *metrics.Registry) instruments {
	return instruments{
		txnLatency:        r.Histogram("txn.latency"),
		txnCommitted:      r.Counter("txn.committed"),
		txnFailed:         r.Counter("txn.failed"),
		promiseMade:       r.Counter("promise.made"),
		promiseRefused:    r.Counter("promise.refused"),
		promiseKept:       r.Counter("promise.kept"),
		promiseBroken:     r.Counter("promise.broken"),
		constraintManaged: r.Counter("constraint.managed"),
		apologyIssued:     r.Counter("apology.issued"),
	}
}

// maxWarnings bounds what Warnings retains.
const maxWarnings = 1024

// Open creates a kernel.
func Open(opts Options) (*Kernel, error) {
	opts.fill()
	k := &Kernel{
		opts:     opts,
		units:    map[partition.UnitID]*unit{},
		hlc:      clock.NewHLC(opts.Node),
		registry: migrate.NewRegistry(),
		metrics:  metrics.NewRegistry(),
	}
	k.inst = resolveInstruments(k.metrics)
	if opts.UnitBackends != nil && len(opts.UnitBackends) != opts.Units {
		return nil, fmt.Errorf("core: %d unit backends for %d units", len(opts.UnitBackends), opts.Units)
	}
	ids := make([]partition.UnitID, opts.Units)
	for i := range ids {
		ids[i] = partition.UnitID(fmt.Sprintf("%s-u%d", opts.Node, i))
	}
	// The unit stores recover at once: each has its own directory, WAL and
	// tables, so none waits on another. A failure closes every store that
	// did open — their directory locks, WAL files and compactors would
	// otherwise outlive the failed call (supplied backends stay the
	// caller's, so a failed promotion can be retried on them).
	dbs := make([]*lsdb.DB, opts.Units)
	err := eachUnit(opts.Units, func(i int) error {
		var err error
		dbs[i], err = openUnitStore(opts, ids[i], i)
		return err
	})
	k.locator = partition.NewHashLocator(64)
	for i := 0; err == nil && i < len(ids); i++ {
		err = k.locator.AddUnit(ids[i])
	}
	if err != nil {
		for _, db := range dbs {
			if db != nil && opts.UnitBackends == nil {
				_ = db.Close()
			}
		}
		return nil, err
	}
	for i, id := range ids {
		db := dbs[i]
		mgr := txn.NewManager(db, k.hlc, txn.Options{
			Node:                clock.NodeID(id),
			EnforceSingleEntity: true,
		})
		q := queue.New(string(id), queue.Options{MaxDepth: opts.MaxQueueDepth})
		engine := process.NewEngine(mgr, q, process.Options{
			Workers:          opts.Workers,
			CollapseVertical: opts.CollapseVertical,
			Route:            k.routeQueue,
		})
		u := &unit{
			id:     id,
			db:     db,
			mgr:    mgr,
			queue:  q,
			engine: engine,
			maint:  aggregate.NewMaintainer(db),
		}
		k.units[id] = u
		k.byIndex = append(k.byIndex, u)
		k.unitIDs = append(k.unitIDs, id)
	}
	sort.Slice(k.unitIDs, func(i, j int) bool { return k.unitIDs[i] < k.unitIDs[j] })
	if r := opts.Replication; r != nil && len(r.Standbys) > 0 {
		self := r.Self
		if self == "" {
			self = opts.Node
		}
		k.shipper = replica.NewShipper(replica.ShipperOptions{
			Self:         self,
			Standbys:     r.Standbys,
			Mode:         r.Ack,
			Timeout:      r.Timeout,
			Transport:    r.Transport,
			Net:          r.Net,
			Source:       k.unitTail,
			Window:       r.Window,
			CatchupChunk: r.CatchupChunk,
		})
	}
	// Each unit's commit sink is its aggregate maintainer's capture, then,
	// when replication is on, the shipper's sink. Attaching the sinks here
	// is safe: the kernel is not shared yet, so no commit can race the late
	// bind.
	for i, u := range k.byIndex {
		var ship func([]lsdb.Record) func() error
		if k.shipper != nil {
			ship = k.shipper.Sink(i)
		}
		u.db.SetCommitSink(func(records []lsdb.Record) func() error {
			u.maint.Capture(records)
			if ship == nil {
				return nil
			}
			return ship(records)
		})
	}
	return k, nil
}

// UnitTail returns one streaming catch-up chunk of a unit's log: up to limit
// records with LSN > after, in log order (limit <= 0 means unbounded).
// cmd/soupsd serves /catchup from it.
func (k *Kernel) UnitTail(unit int, after uint64, limit int) []lsdb.Record {
	return k.unitTail(unit, after, limit)
}

// unitTail serves standby catch-up requests from a unit's log, bounded to
// one streaming chunk.
func (k *Kernel) unitTail(unit int, after uint64, limit int) []lsdb.Record {
	if unit < 0 || unit >= len(k.byIndex) {
		return nil
	}
	return k.byIndex[unit].db.RecordsAfterN(after, limit)
}

// openUnitStore opens one unit's log store: purely in-memory without a
// DataDir, otherwise recovered from (and durably attached to) the unit's
// segmented WAL. Recovery runs before entity types are registered; that is
// safe — records, summaries and older builds' obsolescence marks replay
// without types, and a compaction mark simply re-archives less (identical rollup states either
// way, see lsdb.Recover).
func openUnitStore(opts Options, id partition.UnitID, index int) (*lsdb.DB, error) {
	// Each store keeps lsdb's default of 8 shards and snapshots every 32nd
	// version of an entity (lsdb's default, 0, takes none), bounding the
	// rollup a cache miss replays. A durable unit's WAL keeps its own
	// default of 4 MiB segments.
	dbOpts := lsdb.Options{
		Node:            clock.NodeID(id),
		SnapshotEvery:   32,
		Validation:      entity.Managed,
		CheckpointEvery: opts.CheckpointEvery,
		RearmAfter:      opts.RearmAfter,
	}
	if opts.UnitBackends != nil {
		dbOpts.Backend = opts.UnitBackends[index]
		db, err := lsdb.Recover(dbOpts)
		if err != nil {
			return nil, fmt.Errorf("core: recovering unit %s from supplied backend: %w", id, err)
		}
		return db, nil
	}
	if opts.DataDir == "" {
		return lsdb.Open(dbOpts), nil
	}
	unitDir := filepath.Join(opts.DataDir, fmt.Sprintf("unit-%d", index))
	wal, err := storage.OpenWAL(storage.WALOptions{Dir: unitDir, Sync: opts.Fsync})
	if err != nil {
		return nil, fmt.Errorf("core: unit %s: %w", id, err)
	}
	// Tier the WAL: flushes write SSTables beside the segments, the WAL
	// becomes the tail-only redo log, and recovery reads newest tables plus
	// that tail.
	tiered, err := lsm.Open(wal, lsm.Options{
		Dir:             filepath.Join(unitDir, "sst"),
		CompactAfter:    opts.CompactAfter,
		CompactThrottle: opts.CompactThrottle,
	})
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("core: unit %s: %w", id, err)
	}
	dbOpts.Backend = tiered
	dbOpts.FlushBytes = opts.FlushBytes
	db, err := lsdb.Recover(dbOpts)
	if err != nil {
		dbOpts.Backend.Close()
		return nil, fmt.Errorf("core: recovering unit %s: %w", id, err)
	}
	return db, nil
}

// Options returns the kernel's effective options.
func (k *Kernel) Options() Options { return k.opts }

// Units returns the serialization unit ids, sorted.
func (k *Kernel) Units() []partition.UnitID {
	return append([]partition.UnitID(nil), k.unitIDs...)
}

// Metrics exposes the kernel's metric registry.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// SchemaRegistry exposes the schema version registry.
func (k *Kernel) SchemaRegistry() *migrate.Registry { return k.registry }

// routeQueue returns the queue of the serialization unit owning an event's
// entity, so emitted events always land where their step must execute.
func (k *Kernel) routeQueue(ev *queue.Event) *queue.Queue {
	u, err := k.unitFor(ev.Entity)
	if err != nil {
		return nil
	}
	return u.queue
}

// unitFor returns the unit owning the key.
func (k *Kernel) unitFor(key entity.Key) (*unit, error) {
	id, err := k.locator.Locate(key)
	if err != nil {
		return nil, err
	}
	u, ok := k.units[id]
	if !ok {
		return nil, fmt.Errorf("core: locator points at unknown unit %s", id)
	}
	return u, nil
}

// RegisterType registers an entity type on every unit and in the schema
// registry.
func (k *Kernel) RegisterType(t *entity.Type) error {
	if err := k.registry.Register(t); err != nil {
		return err
	}
	for _, u := range k.units {
		if err := u.db.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// RegisterTypes registers several types, stopping at the first error.
func (k *Kernel) RegisterTypes(types ...*entity.Type) error {
	for _, t := range types {
		if err := k.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// --- Transactions -----------------------------------------------------------

// checkReferences records a dangling Reference field set by ops on key, an
// entity of unit u, as a managed warning, handled by later process steps
// (principle 2.2); the write goes ahead either way.
func (k *Kernel) checkReferences(u *unit, key entity.Key, ops []entity.Op) {
	typ, ok := u.db.TypeOf(key.Type)
	if !ok {
		return // the append itself will report the unknown type
	}
	for _, op := range ops {
		if op.Kind != entity.OpSet {
			continue
		}
		val, _ := op.Value.(string)
		if val == "" {
			continue
		}
		refType, isRef := "", false
		for i := range typ.Fields {
			if f := &typ.Fields[i]; f.Name == op.Field {
				refType, isRef = f.RefType, f.Type == entity.Reference
				break
			}
		}
		if !isRef {
			continue
		}
		refKey, err := entity.ParseKey(val)
		if err != nil {
			refKey = entity.Key{Type: refType, ID: val}
		}
		if k.Exists(refKey) {
			continue
		}
		problem := fmt.Sprintf("dangling reference %s.%s -> %s", key.Type, op.Field, refKey)
		k.recordWarnings([]entity.Warning{{Key: key, Op: op, Problem: problem}})
	}
}

// Transact runs fn inside one focused, solipsistic transaction against the
// unit owning key and commits it (principles 2.5 and 2.10). Events emitted
// via Txn.Emit go to that unit's queue; managed violations the commit
// reports go to Warnings.
func (k *Kernel) Transact(key entity.Key, fn func(*txn.Txn) error) (txn.CommitResult, error) {
	u, err := k.unitFor(key)
	if err != nil {
		return txn.CommitResult{}, err
	}
	start := time.Now()
	res, err := u.mgr.Run(u.queue, fn)
	return res, k.finishTxn(start, &res, err)
}

// finishTxn records the outcome of a transaction begun at start.
func (k *Kernel) finishTxn(start time.Time, res *txn.CommitResult, err error) error {
	k.inst.txnLatency.Record(time.Since(start))
	if err != nil {
		k.inst.txnFailed.Inc()
		return err
	}
	k.inst.txnCommitted.Inc()
	k.recordWarnings(res.Warnings)
	return nil
}

// Update is the single-shot convenience: apply ops to key in one focused
// transaction. A dangling Reference field becomes a managed warning.
func (k *Kernel) Update(key entity.Key, ops ...entity.Op) (txn.CommitResult, error) {
	u, err := k.unitFor(key)
	if err != nil {
		k.inst.txnFailed.Inc()
		return txn.CommitResult{}, err
	}
	k.checkReferences(u, key, ops)
	start := time.Now()
	res, err := u.mgr.Update(key, ops...)
	return res, k.finishTxn(start, &res, err)
}

// UpdateTentative makes a promise: one tentative record of its terms
// (entity.Promise) and ops, whose txn id is the promise's id, pending until
// KeepPromise or BreakPromise settles it. An entity already carrying
// Options.PromiseLimit pending promises refuses it (apology.ErrPromiseLimit).
func (k *Kernel) UpdateTentative(key entity.Key, partner, kind string, quantity float64, ops ...entity.Op) (apology.Promise, error) {
	u, err := k.unitFor(key)
	if err != nil {
		k.inst.txnFailed.Inc()
		return apology.Promise{}, err
	}
	start := time.Now()
	res, err := u.mgr.Promise(key, k.opts.PromiseLimit, append([]entity.Op{entity.Promise(kind, partner, quantity)}, ops...)...)
	if err := k.finishTxn(start, &res, err); err != nil {
		if errors.Is(err, apology.ErrPromiseLimit) {
			k.inst.promiseRefused.Inc()
		}
		return apology.Promise{}, err
	}
	k.inst.promiseMade.Inc()
	return apology.Promise{ID: res.TxnID, Kind: kind, Entity: key, TxnID: res.TxnID,
		Partner: partner, Quantity: quantity, Made: time.Unix(0, res.Stamp.WallNanos)}, nil
}

// MultiWrite is one entity write inside a multi-entity request.
type MultiWrite struct {
	Key entity.Key
	Ops []entity.Op
	// Event optionally names the process-step event used to propagate this
	// write asynchronously ("" uses "core.apply").
	Event string
}

// applyEventName is the built-in process step that applies propagated writes.
const applyEventName = "core.apply"

// TransactMulti applies writes that may span entities and serialization
// units: the first write is applied in a focused local transaction and the
// remaining writes are propagated as process-step events to their owning
// units (principles 2.5/2.6); callers observe them once the steps execute.
func (k *Kernel) TransactMulti(writes []MultiWrite) error {
	if len(writes) == 0 {
		return nil
	}
	first := writes[0]
	res, err := k.Transact(first.Key, func(t *txn.Txn) error {
		return t.Update(first.Key, first.Ops...)
	})
	if err != nil {
		return err
	}
	// The remaining writes propagate as process-step events to their owning
	// units once the first transaction committed (principle 2.4: a committed
	// transaction may enqueue events that result in additional process
	// steps).
	for i, w := range writes[1:] {
		name := w.Event
		if name == "" {
			name = applyEventName
		}
		ev := queue.Event{
			Name:   name,
			Entity: w.Key,
			TxnID:  fmt.Sprintf("%s/propagate-%d", res.TxnID, i),
			Data:   map[string]interface{}{"ops": w.Ops},
		}
		if err := k.Submit(ev); err != nil {
			return err
		}
	}
	return nil
}

// --- Reads -------------------------------------------------------------------

// Read returns the subjective current state of an entity. The state is
// frozen and served zero-copy from the owning unit's materialised cache;
// call State.Thaw before mutating it.
func (k *Kernel) Read(key entity.Key) (*entity.State, error) {
	u, err := k.unitFor(key)
	if err != nil {
		return nil, err
	}
	st, _, err := u.db.Current(key)
	return st, err
}

// ReadAsOf returns the entity state as of a timestamp.
func (k *Kernel) ReadAsOf(key entity.Key, ts clock.Timestamp) (*entity.State, error) {
	u, err := k.unitFor(key)
	if err != nil {
		return nil, err
	}
	return u.db.AsOf(key, ts)
}

// History returns the insert-only version history of an entity.
func (k *Kernel) History(key entity.Key) (*entity.History, error) {
	u, err := k.unitFor(key)
	if err != nil {
		return nil, err
	}
	return u.db.History(key)
}

// Exists reports whether the entity has any recorded state.
func (k *Kernel) Exists(key entity.Key) bool {
	u, err := k.unitFor(key)
	if err != nil {
		return false
	}
	return u.db.Exists(key)
}

// Query scans every unit for entities of a type and calls fn with each
// current state; returning false stops the scan. States are frozen and
// shared zero-copy with the store's cache — fn must Thaw one before
// mutating it.
func (k *Kernel) Query(typeName string, fn func(*entity.State) bool) error {
	for _, id := range k.unitIDs {
		u := k.units[id]
		stop := false
		err := u.db.Scan(typeName, func(st *entity.State) bool {
			cont := fn(st)
			if !cont {
				stop = true
			}
			return cont
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Now returns a kernel timestamp (useful for ReadAsOf).
func (k *Kernel) Now() clock.Timestamp { return k.hlc.Now() }

// Warnings returns the newest constraint violations accepted as managed
// exceptions (principle 2.2), oldest first, at most maxWarnings of them;
// WarningCount is how many there have been. The slice is a copy.
func (k *Kernel) Warnings() []entity.Warning {
	k.warnMu.Lock()
	defer k.warnMu.Unlock()
	out := make([]entity.Warning, 0, len(k.warnings))
	out = append(out, k.warnings[k.warnNext:]...)
	return append(out, k.warnings[:k.warnNext]...)
}

// WarningCount returns how many managed violations were accepted so far,
// including those Warnings no longer retains.
func (k *Kernel) WarningCount() uint64 {
	return k.inst.constraintManaged.Value()
}

func (k *Kernel) recordWarnings(ws []entity.Warning) {
	if len(ws) == 0 {
		return
	}
	k.warnMu.Lock()
	for _, w := range ws {
		if len(k.warnings) < maxWarnings {
			k.warnings = append(k.warnings, w)
			continue
		}
		k.warnings[k.warnNext] = w
		k.warnNext = (k.warnNext + 1) % maxWarnings
	}
	k.warnMu.Unlock()
	k.inst.constraintManaged.Add(uint64(len(ws)))
}

// --- Process steps ------------------------------------------------------------

// DefineProcess registers the process definition on every unit's engine and
// installs the built-in propagation step.
func (k *Kernel) DefineProcess(def *process.Definition) error {
	for _, u := range k.units {
		if err := u.engine.Register(def); err != nil {
			return err
		}
	}
	return nil
}

// ensureApplyStep installs the built-in step that applies propagated writes.
func (k *Kernel) ensureApplyStep() error {
	def := process.NewDefinition("core-propagation")
	def.Step(applyEventName, func(ctx *process.StepContext) error {
		rawOps, _ := ctx.Event.Data["ops"].([]entity.Op)
		return ctx.Txn.Update(ctx.Event.Entity, rawOps...)
	})
	return k.DefineProcess(def)
}

// Submit enqueues an event on the unit owning its entity.
func (k *Kernel) Submit(ev queue.Event) error {
	u, err := k.unitFor(ev.Entity)
	if err != nil {
		return err
	}
	return u.engine.Submit(ev)
}

// Drain processes queued events synchronously on every unit until all queues
// are empty. Events emitted by steps are routed to the owning unit's queue,
// so the loop keeps going until a full pass over all units processes nothing.
func (k *Kernel) Drain() int {
	total := 0
	for {
		ran := 0
		for _, id := range k.unitIDs {
			ran += k.units[id].engine.Drain()
		}
		total += ran
		if ran == 0 {
			return total
		}
	}
}

// Start launches process workers on every unit.
func (k *Kernel) Start() {
	k.mu.Lock()
	if k.started || k.closed {
		k.mu.Unlock()
		return
	}
	k.started = true
	k.mu.Unlock()
	for _, u := range k.units {
		u.engine.Start()
	}
}

// Stop halts workers started by Start.
func (k *Kernel) Stop() {
	k.mu.Lock()
	if !k.started {
		k.mu.Unlock()
		return
	}
	k.started = false
	k.mu.Unlock()
	for _, u := range k.units {
		u.engine.Stop()
	}
	if k.shipper != nil {
		// Flush the lanes before stopping them so an orderly shutdown does
		// not turn in-flight async batches into catch-up work.
		k.shipper.Drain()
		k.shipper.Close()
	}
}

// Close shuts the kernel down, flushing and closing every unit's durable
// backend. Flush errors are not reported here — durable deployments call
// Flush first and act on its error before closing.
func (k *Kernel) Close() {
	k.Stop()
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return
	}
	k.closed = true
	if k.shipper != nil {
		// Stop drains and closes the shipper only on a started kernel; one
		// that never started would leave its lanes running, retrying ships
		// after the node is gone.
		k.shipper.Drain()
		k.shipper.Close()
	}
	_ = eachUnit(len(k.byIndex), func(i int) error {
		u := k.byIndex[i]
		u.queue.Close()
		return u.db.Close()
	})
}

// eachUnit runs fn on units 0..n-1 at once and returns their errors in unit
// order (errors.Join; nil when every call succeeded). Every unit is
// attempted whatever the others return: units share no storage, so one
// unit's failure is no reason to leave another's work undone.
func eachUnit(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Flush forces everything committed so far to every unit's stable storage,
// all units at once. A no-op for in-memory kernels.
func (k *Kernel) Flush() error {
	return eachUnit(len(k.byIndex), func(i int) error {
		u := k.byIndex[i]
		if err := u.db.Sync(); err != nil {
			return fmt.Errorf("core: flushing unit %s: %w", u.id, err)
		}
		return nil
	})
}

// Checkpoint flushes every unit's store (lsdb.DB.Checkpoint), all units at
// once, bounding the next restart's recovery to its tables plus the log tail
// written afterwards. A unit that fails does not stop the others; the error
// names every unit that failed. A no-op for in-memory kernels.
func (k *Kernel) Checkpoint() error {
	return eachUnit(len(k.byIndex), func(i int) error {
		u := k.byIndex[i]
		if err := u.db.Checkpoint(); err != nil {
			return fmt.Errorf("core: checkpointing unit %s: %w", u.id, err)
		}
		return nil
	})
}

// StorageErr returns the most recent background storage failure on any unit
// — an automatic flush or a compaction mark that could not be logged —
// or nil. Background failures do not fail the writes that triggered them,
// so health probes should surface this: a node whose flushes silently
// stopped keeps answering while its recovery time grows without bound.
func (k *Kernel) StorageErr() error {
	for _, id := range k.unitIDs {
		if err := k.units[id].db.BackendErr(); err != nil {
			return fmt.Errorf("core: unit %s: %w", id, err)
		}
	}
	return nil
}

// Compact summarises history on every unit: each entity's current rollup is
// archived and its detail records removed, up to the unit's present head
// (the paper's summarisation-and-archival functionality at kernel scale).
// Entities written concurrently with the pass keep their records. Returns
// how many entities were summarised.
func (k *Kernel) Compact() int {
	total := 0
	for _, id := range k.unitIDs {
		u := k.units[id]
		total += u.db.Compact(u.db.HeadLSN())
	}
	return total
}

// --- Backup and restore ---------------------------------------------------------

// A backup is one frame stream (storage.StreamWriter): a header frame
// (format version, unit count — LSN spaces are per unit, so a restore needs
// the same partitioning), then for each unit a unit frame and that unit's
// cut (lsdb.WriteCut), then the trailer counting every frame before it.
const (
	backupVersion = 2
	tagBackup     = 'B' // header: version, units
	tagUnit       = 'U' // a unit's cut follows: unit index
)

// Export writes a portable backup of every unit: each unit's archived
// summaries (compacted entities are not reconstructible from records, so
// they travel explicitly) and retained records in LSN order, in the record
// codec the WAL writes, so every value reads back exactly as it was.
func (k *Kernel) Export(w io.Writer) error {
	sw := storage.NewStreamWriter(w)
	err := sw.Control(tagBackup, nil, backupVersion, uint64(len(k.unitIDs)))
	for i, id := range k.unitIDs {
		if err == nil {
			err = sw.Control(tagUnit, nil, uint64(i))
		}
		if err == nil {
			// One atomic cut per unit: a Compact racing the export cannot
			// move an entity between the summary and record sets unseen.
			err = k.units[id].db.WriteCut(sw)
		}
	}
	if err == nil {
		err = sw.Close()
	}
	if err != nil {
		return fmt.Errorf("core: export: %w", err)
	}
	return nil
}

// Import replays a stream produced by Export into this kernel. The kernel
// must be freshly bootstrapped with the same unit count and entity types and
// must not be serving writes: records install through the bulk-load path
// with their original LSNs, which a concurrent append could collide with. A
// kernel that already holds records is refused up front, and a write that
// slips in while the import runs is detected afterwards — the import fails
// and the node must be wiped rather than serve an interleaved log. A stream
// cut short, missing its trailer or failing any frame's CRC is refused, as
// is a version 1 (JSON) backup. Durable kernels flush after the import
// (Checkpoint), so the restored state is on disk before Import returns.
func (k *Kernel) Import(r io.Reader) error {
	for _, id := range k.unitIDs {
		if k.units[id].db.HeadLSN() != 0 {
			return fmt.Errorf("core: import: unit %s already has records; restore requires a fresh node", id)
		}
	}
	br := bufio.NewReaderSize(r, 1<<16) // the stream reader reads through it, no second buffer
	if head, _ := br.Peek(1); len(head) == 1 && head[0] == '{' {
		return fmt.Errorf("core: import: stream is a version 1 (JSON) backup; this build restores version %d only", backupVersion)
	}
	sr := storage.NewStreamReader(br)
	var version, units uint64
	if _, err := sr.Control(tagBackup, &version, &units); err != nil {
		return fmt.Errorf("core: import: reading header: %w", err)
	}
	if version != backupVersion {
		return fmt.Errorf("core: import: unsupported stream version %d", version)
	}
	if units != uint64(len(k.unitIDs)) {
		return fmt.Errorf("core: import: stream has %d units, kernel has %d (unit counts must match)", units, len(k.unitIDs))
	}
	recordsPerUnit := make([]int, len(k.unitIDs))
	for i, id := range k.unitIDs {
		var unit uint64
		_, err := sr.Control(tagUnit, &unit)
		if err == nil && unit != uint64(i) {
			err = fmt.Errorf("section for unknown unit %d, want unit %d", unit, i)
		}
		if err == nil {
			recordsPerUnit[i], err = k.units[id].db.ReadCut(sr)
		}
		if err != nil {
			return importErr(err)
		}
	}
	if err := sr.Close(); err != nil {
		return importErr(err)
	}
	// Detect writes that raced the import: every unit must hold exactly the
	// imported records, or the log is interleaved and unusable.
	for i, id := range k.unitIDs {
		if got := k.units[id].db.Len(); got != recordsPerUnit[i] {
			return fmt.Errorf("core: import: unit %s holds %d records, imported %d — the node took writes during restore and must be wiped", id, got, recordsPerUnit[i])
		}
	}
	// The bulk-load path bypasses the commit sink, so the aggregates refold
	// every entity of their types, and the write-ahead log, so a flush
	// captures the imported content durably in one pass.
	for _, u := range k.units {
		u.maint.Reseed()
	}
	return k.Checkpoint()
}

// importErr names a stream cut short for what it most likely is.
func importErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: import: stream ended before its trailer (truncated backup): %w", err)
	}
	return fmt.Errorf("core: import: %w", err)
}

// ProcessStats aggregates process-engine statistics across units: counters
// are summed; PeakLaneDepth — a high-water mark, not a rate — is the
// maximum over units.
func (k *Kernel) ProcessStats() process.Stats {
	var total process.Stats
	for _, u := range k.units {
		s := u.engine.Stats()
		total.StepsExecuted += s.StepsExecuted
		total.StepsFailed += s.StepsFailed
		total.Retries += s.Retries
		total.Compensations += s.Compensations
		total.Collapsed += s.Collapsed
		total.EventsEmitted += s.EventsEmitted
		total.AuditLines += s.AuditLines
		total.UnknownEvents += s.UnknownEvents
		total.EnqueuedEvents += s.EnqueuedEvents
		total.LaneSteals += s.LaneSteals
		total.KeyedDequeues += s.KeyedDequeues
		total.DeadlineDropped += s.DeadlineDropped
		if s.PeakLaneDepth > total.PeakLaneDepth {
			total.PeakLaneDepth = s.PeakLaneDepth
		}
	}
	return total
}

// TxnStats sums transaction statistics across units.
func (k *Kernel) TxnStats() txn.Stats {
	var total txn.Stats
	for _, u := range k.units {
		s := u.mgr.Stats()
		total.Commits += s.Commits
		total.Aborts += s.Aborts
		total.Conflicts += s.Conflicts
	}
	return total
}

// ReplicaStats describes the kernel's replication posture and progress.
type ReplicaStats struct {
	// Enabled is false when the kernel ships nowhere.
	Enabled bool
	// Mode is the ack discipline ("async", "sync", "quorum").
	Mode string
	// Standbys is how many peers every commit ships to.
	Standbys int
	// Ship are the cumulative shipping counters.
	Ship replica.ShipStats
}

// ReplicaStats returns the replication counters (zero value when replication
// is off).
func (k *Kernel) ReplicaStats() ReplicaStats {
	if k.shipper == nil {
		return ReplicaStats{}
	}
	return ReplicaStats{
		Enabled:  true,
		Mode:     k.shipper.Mode().String(),
		Standbys: len(k.shipper.Standbys()),
		Ship:     k.shipper.Stats(),
	}
}

// PromoteStandby turns a log-receiving standby into a live kernel: Fence
// catches it up from every reachable peer (quorum acks can scatter batches
// across standbys, so no single log is guaranteed complete) and fences it
// against the old stream, then Open recovers every unit from the received
// logs — the same replay a restart performs, so watermarks, caches and
// per-entity lane order come back exactly as the primary committed them. If
// the standby cannot append what a peer sent, promotion fails and the
// standby keeps receiving, so it can be retried. opts.Units is forced to the
// standby's unit count; set opts.Replication to have the new primary ship
// onward to the remaining standbys.
func PromoteStandby(sb *replica.Standby, peers []clock.NodeID, opts Options) (*Kernel, error) {
	backends, err := sb.Fence(peers)
	if err != nil {
		return nil, err
	}
	opts.Units = len(backends)
	opts.UnitBackends = backends
	return Open(opts)
}

// QueueDepth returns the number of pending events across all units.
func (k *Kernel) QueueDepth() int {
	total := 0
	for _, u := range k.units {
		total += u.queue.Len()
	}
	return total
}

// UnitHealth is one serialization unit's degraded posture.
type UnitHealth struct {
	Unit       string `json:"unit"`
	QueueDepth int    `json:"queue_depth"`
	// Degraded marks a unit refusing writes; Reason is the documented
	// degraded state ("append-error", "fail-stopped", "corrupt",
	// "poisoned"), Permanent whether only repair/restart clears it.
	Degraded  bool      `json:"degraded,omitempty"`
	Reason    string    `json:"reason,omitempty"`
	Permanent bool      `json:"permanent,omitempty"`
	Since     time.Time `json:"since,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// Health is the kernel's health surface: whether writes are being accepted,
// which units are degraded and why, the queue/backpressure counters, and
// the standby breaker states. soupsd serves it on /readyz and /status and
// folds the counters into /metrics; soupsctl status prints it.
type Health struct {
	// WritesOK is false while any unit refuses writes (degraded read-only
	// mode). Reads keep serving either way.
	WritesOK      bool         `json:"writes_ok"`
	DegradedUnits int          `json:"degraded_units"`
	Units         []UnitHealth `json:"units"`
	// QueueDepth is the pending-event total; QueueShed counts enqueues
	// refused by admission control; DeadlineDropped counts events dropped
	// unexecuted past their deadline (at dequeue or in a lane);
	// WritesRefused counts appends refused with lsdb.ErrDegraded.
	QueueDepth      int    `json:"queue_depth"`
	QueueShed       uint64 `json:"queue_shed"`
	DeadlineDropped uint64 `json:"deadline_dropped"`
	WritesRefused   uint64 `json:"writes_refused"`
	// Breakers maps each standby to its circuit-breaker state ("closed",
	// "open", "half-open"); nil when replication is off.
	Breakers map[string]string `json:"breakers,omitempty"`
}

// Health returns the kernel's degraded/overload posture. It is cheap enough
// to poll: degraded states are lock-free reads and the counters take one
// short lock each.
func (k *Kernel) Health() Health {
	h := Health{WritesOK: true}
	for _, id := range k.unitIDs {
		u := k.units[id]
		uh := UnitHealth{Unit: string(id), QueueDepth: u.queue.Len()}
		if d := u.db.Degraded(); d != nil {
			uh.Degraded = true
			uh.Reason = d.Reason
			uh.Permanent = d.Permanent
			uh.Since = d.Since
			if d.Err != nil {
				uh.Error = d.Err.Error()
			}
			h.WritesOK = false
			h.DegradedUnits++
		}
		h.QueueDepth += uh.QueueDepth
		h.QueueShed += u.queue.Shed()
		h.DeadlineDropped += u.queue.DeadlineDropped() + u.engine.Stats().DeadlineDropped
		h.WritesRefused += u.db.WritesRefused()
		h.Units = append(h.Units, uh)
	}
	if k.shipper != nil {
		h.Breakers = map[string]string{}
		for peer, st := range k.shipper.BreakerStates() {
			h.Breakers[string(peer)] = st
		}
	}
	return h
}

// TieredStats aggregates the LSM tier's posture across every unit: table
// layout and bloom/compaction counters summed from the backends, flush
// pipeline counters summed from the stores. ok is false when no unit runs a
// tiered backend (in-memory kernels, supplied backends).
func (k *Kernel) TieredStats() (storage.TieredStats, lsdb.FlushStats, bool) {
	var ts storage.TieredStats
	var fs lsdb.FlushStats
	ok := false
	for _, u := range k.byIndex {
		t := u.db.Tiered()
		if t == nil {
			continue
		}
		ok = true
		s := t.TieredStats()
		if s.Levels > ts.Levels {
			ts.Levels = s.Levels
		}
		ts.Tables += s.Tables
		ts.L0Tables += s.L0Tables
		ts.TableKeys += s.TableKeys
		ts.Bytes += s.Bytes
		ts.BloomHits += s.BloomHits
		ts.BloomSkips += s.BloomSkips
		ts.BloomFalse += s.BloomFalse
		ts.Flushes += s.Flushes
		ts.FlushFailures += s.FlushFailures
		ts.Compactions += s.Compactions
		ts.CompactFailures += s.CompactFailures
		ts.CompactionBacklog += s.CompactionBacklog
		ts.WALPruneSkips += s.WALPruneSkips
		ts.WALPruneErrors += s.WALPruneErrors
		f := u.db.FlushStats()
		fs.Flushes += f.Flushes
		fs.Failures += f.Failures
		fs.Stalls += f.Stalls
		fs.PendingBytes += f.PendingBytes
		fs.Evicted += f.Evicted
		fs.ColdReads += f.ColdReads
		if fs.Reason == "" {
			fs.Reason = f.Reason
		}
	}
	return ts, fs, ok
}

// RepairUnit heals a fail-stopped or corrupt unit backend: the bad log
// suffix is quarantined and refilled from fetch (nil refills from the
// unit's own in-memory store, which log-first commit guarantees is a
// superset of the durable log). See lsdb.Repair.
func (k *Kernel) RepairUnit(unit int, fetch func(after uint64) ([]lsdb.Record, error)) error {
	if unit < 0 || unit >= len(k.byIndex) {
		return fmt.Errorf("core: unknown unit %d", unit)
	}
	db := k.byIndex[unit].db
	if fetch == nil {
		fetch = func(after uint64) ([]lsdb.Record, error) { return db.RecordsAfterN(after, 0), nil }
	}
	return db.Repair(fetch)
}

// --- Secondary data ------------------------------------------------------------

// DefineSumAggregate declares a sum aggregate on every unit. Reading it sums
// the per-unit partial aggregates.
func (k *Kernel) DefineSumAggregate(name, entityType, field, groupBy string) {
	for _, u := range k.units {
		u.maint.DefineSum(name, entityType, field, groupBy)
	}
}

// DefineCountAggregate declares a count aggregate on every unit.
func (k *Kernel) DefineCountAggregate(name, entityType, groupBy string) {
	for _, u := range k.units {
		u.maint.DefineCount(name, entityType, groupBy)
	}
}

// DefineIndex declares a secondary index on every unit.
func (k *Kernel) DefineIndex(name, entityType, field string) {
	for _, u := range k.units {
		u.maint.DefineIndex(name, entityType, field)
	}
}

// CatchUpAggregates folds every entity written since it was last folded
// into secondary data and returns how many records that caught up past.
// Once it returns with no write in flight, every aggregate equals the same
// fold over Query's live states.
func (k *Kernel) CatchUpAggregates() int {
	total := 0
	for _, u := range k.units {
		total += u.maint.CatchUp()
	}
	return total
}

// Sum reads a sum aggregate (summed across units).
func (k *Kernel) Sum(name, group string) (float64, error) {
	total := 0.0
	for _, u := range k.units {
		v, err := u.maint.Sum(name, group)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// Count reads a count aggregate (summed across units).
func (k *Kernel) Count(name, group string) (int, error) {
	total := 0
	for _, u := range k.units {
		v, err := u.maint.Count(name, group)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// Lookup merges a secondary-index lookup across units.
func (k *Kernel) Lookup(name string, value interface{}) ([]string, error) {
	var out []string
	for _, id := range k.unitIDs {
		ids, err := k.units[id].maint.Lookup(name, value)
		if err != nil {
			return nil, err
		}
		out = append(out, ids...)
	}
	sort.Strings(out)
	return out, nil
}

// AggregateStaleness returns the total number of records not yet folded into
// secondary data across units (principle 2.3's inconsistency window).
func (k *Kernel) AggregateStaleness() int {
	total := 0
	for _, u := range k.units {
		total += u.maint.Staleness()
	}
	return total
}

// --- Promises and apologies -----------------------------------------------------

// Pending returns the pending promises in the order they were made.
func (k *Kernel) Pending() []apology.Promise {
	var out []apology.Promise
	for _, id := range k.unitIDs {
		out = append(out, k.units[id].db.AllPromises()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Made.Before(out[j].Made) })
	return out
}

// KeepPromise keeps a promise with one settlement record naming it.
func (k *Kernel) KeepPromise(id string) error {
	_, err := k.settle(id, false, "", "")
	return err
}

// BreakPromise breaks a promise with one settlement record naming it, which
// carries the apology and withdraws the tentative record from every rollup.
func (k *Kernel) BreakPromise(id, reason, compensation string) (apology.Apology, error) {
	return k.settle(id, true, reason, compensation)
}

// settle keeps or breaks promise id with one settlement record on the unit
// holding it; a break returns the apology the record carries.
func (k *Kernel) settle(id string, brk bool, reason, compensation string) (apology.Apology, error) {
	var u *unit
	var p apology.Promise
	for i := 0; u == nil && i < len(k.byIndex); i++ {
		if found, ok := k.byIndex[i].db.FindPromise(id); ok {
			u, p = k.byIndex[i], found
		}
	}
	if u == nil {
		return apology.Apology{}, fmt.Errorf("%w: %s", apology.ErrUnknownPromise, id)
	}
	op := entity.KeepPromise(p.ID)
	if brk {
		op = entity.BreakPromise(p.ID, reason, compensation)
	}
	start := time.Now()
	res, err := u.mgr.Update(p.Entity, op)
	switch err := k.finishTxn(start, &res, err); {
	case err != nil:
		return apology.Apology{}, err
	case !brk:
		k.inst.promiseKept.Inc()
		return apology.Apology{}, nil
	}
	k.inst.promiseBroken.Inc()
	k.inst.apologyIssued.Inc()
	return apology.Apology{PromiseID: p.ID, Kind: p.Kind, Partner: p.Partner, Reason: reason,
		Compensation: compensation, Issued: time.Unix(0, res.Stamp.WallNanos)}, nil
}

// ResolveOverbooking settles the pending promises on an entity against
// actual availability, keeping them first-come-first-served and breaking
// the rest with an apology. It returns how many it kept and the apologies.
func (k *Kernel) ResolveOverbooking(key entity.Key, available float64, reason, compensation string) (int, []apology.Apology, error) {
	u, err := k.unitFor(key)
	if err != nil {
		return 0, nil, err
	}
	keep, brk := apology.ResolveOverbooking(u.db.Promises(key), available)
	for _, p := range keep {
		if err := k.KeepPromise(p.ID); err != nil {
			return 0, nil, err
		}
	}
	var apologies []apology.Apology
	for _, p := range brk {
		a, err := k.BreakPromise(p.ID, reason, compensation)
		if err != nil {
			return len(keep), apologies, err
		}
		apologies = append(apologies, a)
	}
	return len(keep), apologies, nil
}

// --- Schema migration -----------------------------------------------------------

// Migrate applies a schema migration across every unit, online, and returns
// the aggregated progress: the registry proposes the new version once, every
// unit's store registers it, and then each unit runs the same backfill loop,
// yielding after every batchSize entities.
func (k *Kernel) Migrate(m migrate.Migration, batchSize int) (migrate.Progress, error) {
	var total migrate.Progress
	vt, err := k.registry.Propose(m)
	if err != nil {
		return total, err
	}
	for _, id := range k.unitIDs {
		if err := k.units[id].db.RegisterType(vt.Type); err != nil {
			return total, err
		}
	}
	for _, id := range k.unitIDs {
		u := k.units[id]
		p, err := migrate.Backfill(u.mgr, m, batchSize)
		accumulate(&total, p)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func accumulate(total *migrate.Progress, p migrate.Progress) {
	total.Entities += p.Entities
	total.Backfills += p.Backfills
	total.Skipped += p.Skipped
	total.Errors += p.Errors
	total.Elapsed += p.Elapsed
}

// --- Setup helper ----------------------------------------------------------------

// Bootstrap opens a kernel, registers the given types and installs the
// built-in propagation step. Most examples and benchmarks start here.
func Bootstrap(opts Options, types ...*entity.Type) (*Kernel, error) {
	k, err := Open(opts)
	if err != nil {
		return nil, err
	}
	if err := k.RegisterTypes(types...); err != nil {
		k.Close()
		return nil, err
	}
	if err := k.ensureApplyStep(); err != nil {
		k.Close()
		return nil, err
	}
	return k, nil
}

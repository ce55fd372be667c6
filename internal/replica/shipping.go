// Package replica ships a primary's durable log to standby replicas: the
// production shape the paper's section 2 calls "active systems with
// asynchronous/synchronous commits to backups". Shipping operation records
// rather than states is principle 2.8 applied to replication — replicas that
// hold the same records replay them to the same states.
//
// The primary ships every append written to its storage.Backend — one commit
// cycle per sink call (lsdb.DB.SetCommitSink) — to standby replicas that
// append them, unapplied, into backends of their own. Replication is by LSN
// alone: a standby at watermark L holds every append at or below L, and its
// log holds appends only (Receive refuses any other frame). The summaries a
// compaction logs are each node's own housekeeping and are not shipped. A
// standby is therefore a log copy, not a second database: promotion replays
// the received log through lsdb.Recover, which rebuilds stores, caches and
// watermarks exactly as a restart would, and the promoted node resumes as
// primary.
//
// Shipping is fanned out, not serial: the commit sink's capture phase (which
// runs under the store's shard lock) only snapshots the batch and enqueues it
// on one bounded lane per standby; per-standby goroutines do the actual
// transport work — including retries, jittered backoff and the circuit
// breaker — with no store lock held. Sync and quorum commits block on an ack
// barrier that releases at the slowest *needed* ack: quorum returns after the
// majority, so one slow or parked standby prices only its own lane, and a
// commit over N standbys costs one round trip, not N.
//
// Ack modes tune the durability/latency trade-off per cluster, and with it
// the availability a partition leaves (principle 2.11):
//
//   - AckAsync: the commit cycle returns as soon as the batch is handed to
//     the lanes; loss and partitions are healed by catch-up.
//   - AckSync: every standby must acknowledge the durable append before the
//     writers' commit returns ("synchronous commit to backup").
//   - AckQuorum: a majority of the cluster (standbys + primary) must hold the
//     batch before the commit returns.
//
// A standby tracks, per unit, the contiguous prefix of append LSNs it holds
// (plus the out-of-order set beyond it — commit cycles from independently
// committing shards ship concurrently, so arrival order is not LSN order).
// Anything missing is pulled by LSN with streaming catch-up: segment-sized
// chunks over repeated requests, each response bounded and resumable by the
// highest append LSN received, so a deep backlog never rides in one message.
// The contiguous watermark is durably recorded through
// storage.ReplicationMarker so a restarted standby knows how far its log
// reaches without replaying it.
package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lsdb"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// AckMode selects when a shipped commit cycle is acknowledged to its writers.
type AckMode int

// Ack modes.
const (
	// AckAsync hands the batch to the transport and returns: maximum
	// throughput, and a primary crash can lose commits that were acked to
	// clients but not yet received by any standby.
	AckAsync AckMode = iota
	// AckSync returns only after every standby acknowledged the durable
	// append: an acked write survives the loss of all but one node.
	AckSync
	// AckQuorum returns after a majority of the cluster (standbys plus the
	// primary itself) holds the batch.
	AckQuorum
)

// String returns the flag spelling of the mode.
func (m AckMode) String() string {
	switch m {
	case AckSync:
		return "sync"
	case AckQuorum:
		return "quorum"
	default:
		return "async"
	}
}

// ParseAckMode maps the -ack flag vocabulary onto an AckMode.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "async", "":
		return AckAsync, nil
	case "sync":
		return AckSync, nil
	case "quorum":
		return AckQuorum, nil
	default:
		return AckAsync, fmt.Errorf("replica: unknown ack mode %q (want async, sync or quorum)", s)
	}
}

// ErrStandbyAcks is returned to writers when a synchronous ack mode could not
// gather enough standby acknowledgements. Like any post-commit failure it is
// indeterminate: the records are committed and durable on the primary; only
// the replication guarantee is in doubt.
var ErrStandbyAcks = errors.New("replica: insufficient standby acks")

// ShipBatch is the wire unit of WAL shipping: one commit cycle (or a
// catch-up tail) of one serialization unit.
type ShipBatch struct {
	From    clock.NodeID
	Unit    int
	Records []lsdb.Record
}

// shipAck acknowledges a synchronous ShipBatch with the standby's new
// contiguous watermark for the unit.
type shipAck struct {
	Unit      int
	Watermark uint64
}

// catchupRequest asks a node for the records of one unit after an LSN.
// Limit bounds how many appended records the response may carry (the server
// clamps it to its own chunk size); 0 lets the server choose.
type catchupRequest struct {
	Unit  int
	After uint64
	Limit int
}

// catchupResponse carries one streaming catch-up chunk. More reports that
// the tail continues past the chunk: the puller advances its cursor to the
// chunk's highest append LSN and asks again.
type catchupResponse struct {
	Records []lsdb.Record
	More    bool
}

// Transport moves ship batches to a standby. The bundled netTransport runs
// over netsim; cmd/soupsd provides an HTTP implementation for real processes.
type Transport interface {
	// Ship delivers batch to peer. When sync is true it must not return
	// success before the standby durably appended the batch; when false it
	// may return immediately (loss is the caller's problem, healed by
	// catch-up).
	Ship(peer clock.NodeID, batch ShipBatch, sync bool, timeout time.Duration) error
}

// netTransport ships over a simulated network: synchronous batches as
// requests, asynchronous ones as sends (silently lossy, like a datagram).
type netTransport struct {
	net  *netsim.Network
	self clock.NodeID
}

// Ship implements Transport.
func (t netTransport) Ship(peer clock.NodeID, batch ShipBatch, sync bool, timeout time.Duration) error {
	if sync {
		resp, err := t.net.Request(t.self, peer, batch, timeout)
		if err != nil {
			return err
		}
		if _, ok := resp.(shipAck); !ok {
			return fmt.Errorf("replica: unexpected ship response %T", resp)
		}
		return nil
	}
	return t.net.Send(t.self, peer, batch)
}

// ShipStats counts the primary side of WAL shipping.
type ShipStats struct {
	BatchesShipped uint64
	RecordsShipped uint64
	SyncAcks       uint64
	ShipFailures   uint64
	CatchupServed  uint64
	// ShipRetries counts transient transport failures absorbed by the
	// in-lane retry loop (each retry that was attempted, successful or not).
	ShipRetries uint64
	// BreakerOpens counts closed→open transitions across all standbys.
	BreakerOpens uint64
	// BreakerShortCircuits counts ships skipped because the standby's
	// breaker was open — failures that cost nothing instead of a timeout.
	BreakerShortCircuits uint64
	// WindowOverflows counts ships refused because the standby's lane
	// already had Window batches in flight: the commit proceeds (the
	// overflow counts as that standby's failure, healed by catch-up)
	// instead of the shard stalling behind a slow standby.
	WindowOverflows uint64
}

// ShipperOptions configure the primary side of WAL shipping.
type ShipperOptions struct {
	// Self is the primary's node id on the transport.
	Self clock.NodeID
	// Standbys are the peers every batch ships to.
	Standbys []clock.NodeID
	// Mode selects the ack discipline.
	Mode AckMode
	// Timeout bounds each synchronous ship (default 500ms).
	Timeout time.Duration
	// Transport moves the batches. When nil and Net is set, a netTransport
	// is used.
	Transport Transport
	// Source serves catch-up requests: up to limit records of one unit with
	// LSN > after, in log order (an lsdb.RecordsAfterN closure, or a
	// storage.Streamer read); limit <= 0 means unbounded. Nil disables
	// catch-up serving.
	Source func(unit int, after uint64, limit int) []lsdb.Record
	// Net, when set, registers Self on the simulated network (senders must
	// be registered) and, with Source, a catch-up request handler.
	Net *netsim.Network
	// RetryAttempts is how many extra tries a failed ship gets before its
	// error counts toward the ack verdict (default 2; negative disables):
	// one dropped packet must not fail a sync commit. Retries are bounded
	// and jittered; they absorb transient transport faults, not dead
	// standbys — those are the breaker's job. Retries run inside the
	// standby's lane, so their backoff delays only that standby.
	RetryAttempts int
	// RetryBackoff is the base delay between retries (default 5ms), doubled
	// per retry and jittered ±50% so retrying lanes do not convoy.
	RetryBackoff time.Duration
	// BreakerThreshold opens a standby's circuit breaker after this many
	// consecutive failed ships (default 3). While open, ships to that
	// standby are skipped outright — a persistently dead standby in sync
	// mode stops costing a timeout per commit cycle.
	BreakerThreshold int
	// BreakerCooldown is how long a breaker stays open before one probe
	// ship is let through half-open (default 2s). A successful probe closes
	// the breaker; the standby then heals the gap through catch-up.
	BreakerCooldown time.Duration
	// Window bounds each standby lane's in-flight batch queue (default
	// 128). The capture phase never blocks: a batch that does not fit
	// fails that standby's ship immediately (WindowOverflows) and the gap
	// heals through catch-up, exactly like a lossy transport.
	Window int
	// CatchupChunk caps how many appended records one catch-up response
	// carries (default 512). Pullers stream the tail chunk by chunk.
	CatchupChunk int
	// Now supplies time for breaker state transitions (default time.Now);
	// tests inject a fake clock to step through cooldowns deterministically.
	Now func() time.Time
}

// breakerState is a standby circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker tracks one standby's failure streak. Guarded by Shipper.mu.
type breaker struct {
	state    breakerState
	failures int // consecutive failures while closed
	openedAt time.Time
}

// laneJob is one batch on a standby's shipping lane, with the ack barrier
// (nil in async mode) the lane reports its outcome to.
type laneJob struct {
	batch ShipBatch
	bar   *ackBarrier
	sync  bool
}

// ackBarrier gathers one commit cycle's per-standby ship outcomes and
// releases the waiting writers at the slowest *needed* ack: quorum releases
// after the majority, not after every standby, and a cycle whose success has
// become arithmetically impossible fails without waiting out the stragglers.
// Late reports after release are absorbed; they cannot change the verdict
// (acks only grow toward an already-satisfied need, and an impossibility
// release stays impossible).
type ackBarrier struct {
	need  int
	total int

	mu       sync.Mutex
	acks     int
	fails    int
	firstErr error
	released bool
	done     chan struct{}
}

func newAckBarrier(need, total int) *ackBarrier {
	b := &ackBarrier{need: need, total: total, done: make(chan struct{})}
	if need <= 0 {
		b.released = true
		close(b.done)
	}
	return b
}

// report feeds one standby's outcome in. Safe from concurrent lanes.
func (b *ackBarrier) report(ok bool, err error) {
	b.mu.Lock()
	if ok {
		b.acks++
	} else {
		b.fails++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
	release := !b.released &&
		(b.acks >= b.need || b.acks+(b.total-b.acks-b.fails) < b.need)
	if release {
		b.released = true
	}
	b.mu.Unlock()
	if release {
		close(b.done)
	}
}

// wait blocks until the barrier releases and returns the ack verdict. It is
// the commit sink's second phase: the store invokes it after the shard lock
// is released, so writers — not the shard — absorb the round trip.
func (b *ackBarrier) wait() error {
	<-b.done
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.acks >= b.need {
		return nil
	}
	if b.firstErr != nil {
		return fmt.Errorf("%w: %d/%d (%v)", ErrStandbyAcks, b.acks, b.need, b.firstErr)
	}
	return fmt.Errorf("%w: %d/%d", ErrStandbyAcks, b.acks, b.need)
}

// Shipper is the primary side of WAL shipping: its Sink closures attach to
// the units' stores through lsdb.DB.SetCommitSink. The capture phase (under
// the shard lock) snapshots the batch onto one bounded lane per standby; the
// lanes ship concurrently and the returned wait blocks the writers on the
// mode's ack barrier.
type Shipper struct {
	opts ShipperOptions

	mu       sync.Mutex
	idle     *sync.Cond // broadcast when pending drops to zero (Drain)
	stats    ShipStats
	breakers map[clock.NodeID]*breaker
	jitter   *rand.Rand // retry-backoff jitter; seeded, guarded by mu
	lanes    map[clock.NodeID]chan laneJob
	pending  int // lane jobs enqueued and not yet finished
	closed   bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewShipper creates a shipper, starts its per-standby lanes and, on a
// simulated network, registers its catch-up handler.
func NewShipper(opts ShipperOptions) *Shipper {
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	if opts.Transport == nil && opts.Net != nil {
		opts.Transport = netTransport{net: opts.Net, self: opts.Self}
	}
	if opts.RetryAttempts < 0 {
		opts.RetryAttempts = 0
	} else if opts.RetryAttempts == 0 {
		opts.RetryAttempts = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	if opts.Window <= 0 {
		opts.Window = 128
	}
	if opts.CatchupChunk <= 0 {
		opts.CatchupChunk = 512
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Shipper{
		opts:     opts,
		breakers: map[clock.NodeID]*breaker{},
		jitter:   rand.New(rand.NewSource(1)),
		lanes:    map[clock.NodeID]chan laneJob{},
		quit:     make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	for _, peer := range opts.Standbys {
		s.breakers[peer] = &breaker{}
		jobs := make(chan laneJob, opts.Window)
		s.lanes[peer] = jobs
		s.wg.Add(1)
		go s.runLane(peer, jobs)
	}
	if opts.Net != nil {
		opts.Net.Register(opts.Self, nil)
		if opts.Source != nil {
			opts.Net.RegisterRequestHandler(opts.Self, s.onRequest)
		}
	}
	return s
}

// Mode returns the configured ack mode.
func (s *Shipper) Mode() AckMode { return s.opts.Mode }

// Standbys returns the configured standby ids.
func (s *Shipper) Standbys() []clock.NodeID {
	return append([]clock.NodeID(nil), s.opts.Standbys...)
}

// Stats returns a copy of the counters.
func (s *Shipper) Stats() ShipStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Sink returns the commit sink for one unit's store. The returned closure is
// the capture phase of lsdb's two-phase sink contract: invoked under the
// store's shard lock with records that are already installed and durable
// locally, it must not block — it snapshots the batch onto the standby lanes
// and hands back the ack barrier's wait (nil in async mode), which the store
// runs after releasing the lock. Per-entity order is preserved because an
// entity commits under one shard lock and captures enqueue under one mutex,
// so every lane sees commits in the same global order.
func (s *Shipper) Sink(unit int) func([]lsdb.Record) func() error {
	return func(records []lsdb.Record) func() error { return s.capture(unit, records) }
}

// acksNeeded is how many standby acks the mode requires before a commit
// returns. Quorum counts the primary itself as one holder.
func (s *Shipper) acksNeeded() int {
	switch s.opts.Mode {
	case AckSync:
		return len(s.opts.Standbys)
	case AckQuorum:
		return (len(s.opts.Standbys)+1)/2 + 1 - 1
	default:
		return 0
	}
}

// capture is the under-the-lock phase: copy the batch, enqueue it on every
// standby's lane, return the barrier wait. It never blocks — a lane whose
// window is full takes an immediate failure for this cycle (counted in
// WindowOverflows, healed by catch-up) rather than stalling the shard.
func (s *Shipper) capture(unit int, records []lsdb.Record) func() error {
	if len(s.opts.Standbys) == 0 || s.opts.Transport == nil || len(records) == 0 {
		return nil
	}
	// The sink's slice is only valid for the duration of the capture, and
	// the lanes deliver after it returns: copy.
	recs := make([]lsdb.Record, len(records))
	copy(recs, records)
	job := laneJob{
		batch: ShipBatch{From: s.opts.Self, Unit: unit, Records: recs},
		sync:  s.opts.Mode != AckAsync,
	}
	if job.sync {
		job.bar = newAckBarrier(s.acksNeeded(), len(s.opts.Standbys))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if job.bar == nil {
			return nil
		}
		return func() error { return fmt.Errorf("%w: shipper closed", ErrStandbyAcks) }
	}
	s.stats.BatchesShipped++
	s.stats.RecordsShipped += uint64(len(recs))
	for _, peer := range s.opts.Standbys {
		select {
		case s.lanes[peer] <- job:
			s.pending++
		default:
			s.stats.WindowOverflows++
			s.stats.ShipFailures++
			if job.bar != nil {
				job.bar.report(false, fmt.Errorf("replica: standby %s ship window full", peer))
			}
		}
	}
	s.mu.Unlock()
	if job.bar == nil {
		return nil
	}
	return job.bar.wait
}

// runLane is one standby's shipping goroutine: batches go out in enqueue
// order, and retries, backoff and the breaker run here with no store lock
// held — a slow or parked standby delays only its own lane. On Close the
// lane fails whatever is still queued so no barrier waits forever.
func (s *Shipper) runLane(peer clock.NodeID, jobs chan laneJob) {
	defer s.wg.Done()
	for {
		select {
		case job := <-jobs:
			s.shipJob(peer, job)
		case <-s.quit:
			for {
				select {
				case job := <-jobs:
					s.finishJob(job, errors.New("replica: shipper closed"))
				default:
					return
				}
			}
		}
	}
}

// shipJob attempts one lane job: breaker check, transport with retries,
// breaker verdict, then the barrier report.
func (s *Shipper) shipJob(peer clock.NodeID, job laneJob) {
	var err error
	if !s.breakerAdmits(peer) {
		err = fmt.Errorf("replica: standby %s breaker open", peer)
	} else {
		err = s.shipWithRetry(peer, job.batch, job.sync)
		// Breaker state first, barrier second: when a sync writer wakes,
		// the breaker already reflects the ship that released it.
		s.breakerReport(peer, err == nil)
	}
	s.finishJob(job, err)
}

// finishJob counts a job's outcome, reports it to its barrier and retires
// it from the pending count (waking Drain at zero). The count comes first: a
// sync writer the report wakes reads Stats with its own ship in them.
func (s *Shipper) finishJob(job laneJob, err error) {
	s.mu.Lock()
	if err == nil {
		if job.sync {
			s.stats.SyncAcks++
		}
	} else {
		s.stats.ShipFailures++
	}
	s.mu.Unlock()
	if job.bar != nil {
		job.bar.report(err == nil, err)
	}
	s.mu.Lock()
	s.pending--
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// Drain blocks until every enqueued ship has been attempted — all lanes
// idle, all windows empty. Writers never call it; tests and orderly
// shutdown do, to fence "everything captured so far has reached the
// transport" before inspecting standbys or rewiring the network.
func (s *Shipper) Drain() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close stops the lanes. Queued-but-unattempted batches fail their barriers
// (ErrStandbyAcks, like any lost ship) and heal through catch-up; captures
// after Close fail immediately in sync modes and are dropped in async.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
}

// shipWithRetry ships to one standby, absorbing transient transport errors
// with up to RetryAttempts bounded, jittered, exponentially backed-off
// retries before the error reaches the ack verdict. It runs on the
// standby's lane goroutine: the backoff sleeps hold no lock and delay no
// other standby (and abort early on Close).
func (s *Shipper) shipWithRetry(peer clock.NodeID, batch ShipBatch, sync bool) error {
	err := s.opts.Transport.Ship(peer, batch, sync, s.opts.Timeout)
	backoff := s.opts.RetryBackoff
	for try := 0; err != nil && try < s.opts.RetryAttempts; try++ {
		s.mu.Lock()
		s.stats.ShipRetries++
		// ±50% jitter: lanes retrying the same blip should not re-collide
		// in lockstep.
		delay := backoff/2 + time.Duration(s.jitter.Int63n(int64(backoff)))
		s.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-s.quit:
			return err
		}
		backoff *= 2
		err = s.opts.Transport.Ship(peer, batch, sync, s.opts.Timeout)
	}
	return err
}

// breakerAdmits decides whether a ship to peer may go out. Closed admits;
// open short-circuits until the cooldown elapses, then lets exactly one
// probe through half-open (concurrent ships keep short-circuiting while the
// probe is in flight).
func (s *Shipper) breakerAdmits(peer clock.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[peer]
	if b == nil {
		return true
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if s.opts.Now().Sub(b.openedAt) >= s.opts.BreakerCooldown {
			b.state = breakerHalfOpen
			return true // the probe
		}
	}
	s.stats.BreakerShortCircuits++
	return false
}

// breakerReport feeds one ship outcome into peer's breaker: a success
// closes it (the standby then heals any gap through catch-up); a failure
// re-opens a half-open breaker immediately and opens a closed one after
// BreakerThreshold consecutive failures.
func (s *Shipper) breakerReport(peer clock.NodeID, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[peer]
	if b == nil {
		return
	}
	if ok {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= s.opts.BreakerThreshold {
		if b.state != breakerOpen {
			s.stats.BreakerOpens++
		}
		b.state = breakerOpen
		b.openedAt = s.opts.Now()
	}
}

// BreakerStates reports each standby's breaker position ("closed", "open",
// "half-open") for the health surface.
func (s *Shipper) BreakerStates() map[clock.NodeID]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[clock.NodeID]string, len(s.breakers))
	for peer, b := range s.breakers {
		out[peer] = b.state.String()
	}
	return out
}

// chunkTail cuts one streaming catch-up chunk out of a tail: at most limit
// records, and whether more follow. limit <= 0 means no bound.
func chunkTail(recs []lsdb.Record, limit int) (chunk []lsdb.Record, more bool) {
	if limit <= 0 || len(recs) <= limit {
		return recs, false
	}
	return recs[:limit:limit], true
}

// onRequest serves streaming catch-up requests from the primary's log.
func (s *Shipper) onRequest(from clock.NodeID, payload interface{}) (interface{}, error) {
	req, ok := payload.(catchupRequest)
	if !ok {
		return nil, fmt.Errorf("replica: unknown request %T", payload)
	}
	limit := req.Limit
	if limit <= 0 || limit > s.opts.CatchupChunk {
		limit = s.opts.CatchupChunk
	}
	// One extra record decides More without a second scan; chunkTail cuts
	// it back off.
	recs := s.opts.Source(req.Unit, req.After, limit+1)
	chunk, more := chunkTail(recs, limit)
	s.mu.Lock()
	s.stats.CatchupServed++
	s.mu.Unlock()
	return catchupResponse{Records: chunk, More: more}, nil
}

// StandbyStats counts the standby side of WAL shipping.
type StandbyStats struct {
	BatchesReceived uint64
	RecordsReceived uint64
	Duplicates      uint64
	// Gaps counts gap-opening events — transitions from a complete prefix
	// to a missing LSN — not batches received while a gap happened to be
	// open (that would conflate backlog depth with fault count).
	Gaps           uint64
	CatchupRounds  uint64
	CatchupRecords uint64
}

// StandbyOptions configure a log-receiving standby.
type StandbyOptions struct {
	// Self is the standby's node id on the network.
	Self clock.NodeID
	// Net is the simulated network the standby receives on (nil for
	// transports that deliver by calling Receive directly, like HTTP).
	Net *netsim.Network
	// Backends hold the received log, one per serialization unit of the
	// primary. For a durable standby use WALs (with SyncAlways, an ack
	// means the batch survives the standby's own crash).
	Backends []storage.Backend
	// PersistEvery records the contiguous watermark through
	// storage.ReplicationMarker every N batches *that unit* received
	// (default 1; the WAL's marker is a manifest install, so busy standbys
	// raise this). The cadence is per unit so a quiet unit's watermark
	// still persists on its own schedule.
	PersistEvery int
	// CatchupChunk caps how many appended records one catch-up response
	// this standby serves may carry, and sizes the chunks its own CatchUp
	// requests ask for (default 512).
	CatchupChunk int
	// Timeout bounds the standby's own requests (default 500ms).
	Timeout time.Duration
}

// unitProgress tracks how much of one unit's shipped stream the standby
// holds: the contiguous append-LSN prefix plus the out-of-order set beyond
// it, and the unit's own gap/persist bookkeeping.
type unitProgress struct {
	contig  uint64
	pending map[uint64]bool
	// gapOpen remembers whether the unit is currently missing an LSN below
	// its highest, so Gaps counts opening events, not affected batches.
	gapOpen bool
	// batches counts received batches for the PersistEvery cadence.
	batches uint64
}

// markLocked records lsn as held and advances the contiguous watermark. An
// LSN of 0 — an older build's mark in a restarted standby's log — changes
// nothing.
func (u *unitProgress) markLocked(lsn uint64) {
	if lsn <= u.contig {
		return
	}
	u.pending[lsn] = true
	for u.pending[u.contig+1] {
		delete(u.pending, u.contig+1)
		u.contig++
	}
}

// hasLocked reports whether lsn is already held.
func (u *unitProgress) hasLocked(lsn uint64) bool {
	return lsn <= u.contig || u.pending[lsn]
}

// Standby receives a primary's shipped log into per-unit backends. It applies
// nothing — it is a log copy, promoted by Fence and then by replaying the
// backends through lsdb.Recover.
type Standby struct {
	opts StandbyOptions

	mu      sync.Mutex
	stopped bool
	units   []unitProgress
	stats   StandbyStats
}

// NewStandby creates a standby over its unit backends. Existing backend
// content (a restarted standby re-opening its received log) is scanned to
// resume the per-unit progress, so catch-up after a restart still dedups,
// and the network handlers are registered.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("replica: standby needs at least one unit backend")
	}
	if opts.PersistEvery <= 0 {
		opts.PersistEvery = 1
	}
	if opts.CatchupChunk <= 0 {
		opts.CatchupChunk = 512
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	sb := &Standby{opts: opts, units: make([]unitProgress, len(opts.Backends))}
	for i := range sb.units {
		sb.units[i].pending = map[uint64]bool{}
	}
	for i, b := range opts.Backends {
		u := &sb.units[i]
		if _, err := b.Replay(func(rec storage.WALRecord) error {
			u.markLocked(rec.LSN)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("replica: scanning standby unit %d: %w", i, err)
		}
		if len(u.pending) > 0 {
			// The restarted log already has a hole: one open gap.
			u.gapOpen = true
			sb.stats.Gaps++
		}
	}
	if opts.Net != nil {
		opts.Net.Register(opts.Self, sb.onMessage)
		opts.Net.RegisterRequestHandler(opts.Self, sb.onRequest)
	}
	return sb, nil
}

// Units returns how many unit logs the standby receives.
func (sb *Standby) Units() int { return len(sb.opts.Backends) }

// Backends exposes the received per-unit logs (promotion opens stores over
// them).
func (sb *Standby) Backends() []storage.Backend {
	return append([]storage.Backend(nil), sb.opts.Backends...)
}

// Watermark returns the contiguous replication watermark of one unit: every
// append with LSN at or below it has been received.
func (sb *Standby) Watermark(unit int) uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if unit < 0 || unit >= len(sb.units) {
		return 0
	}
	return sb.units[unit].contig
}

// Stats returns a copy of the counters.
func (sb *Standby) Stats() StandbyStats {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.stats
}

// Stop makes the standby refuse further batches (promotion fences the old
// stream this way).
func (sb *Standby) Stop() {
	sb.mu.Lock()
	sb.stopped = true
	sb.mu.Unlock()
}

// ErrNotAppend refuses a shipped batch holding a frame other than an append:
// a mark without an LSN, which only an older build's primary ships and a
// standby cannot place in the log. Pairs with such a primary are
// unsupported.
var ErrNotAppend = errors.New("replica: shipped frame is not an append")

// Receive appends one batch to the unit's log, skipping the appends whose
// LSN the standby already holds (catch-up tails overlap in-flight ships). A
// batch holding any other frame is refused whole with ErrNotAppend. It
// returns the unit's new contiguous watermark and whether a gap is open —
// some LSN below the batch's highest is still missing (lost or still in
// flight from another shard's commit).
func (sb *Standby) Receive(batch ShipBatch) (watermark uint64, gap bool, err error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.stopped {
		return 0, false, errors.New("replica: standby stopped")
	}
	if batch.Unit < 0 || batch.Unit >= len(sb.units) {
		return 0, false, fmt.Errorf("replica: unknown unit %d", batch.Unit)
	}
	u := &sb.units[batch.Unit]
	for _, rec := range batch.Records {
		if rec.Kind != storage.KindAppend {
			return u.contig, len(u.pending) > 0, fmt.Errorf("%w: kind %d", ErrNotAppend, rec.Kind)
		}
	}
	var fresh []lsdb.Record
	for _, rec := range batch.Records {
		if u.hasLocked(rec.LSN) {
			sb.stats.Duplicates++
			continue
		}
		fresh = append(fresh, rec)
	}
	if len(fresh) > 0 {
		// Durability before progress: the watermark advances only for
		// records the backend accepted, so a failed append is
		// indistinguishable from a lost batch and heals the same way.
		if err := sb.opts.Backends[batch.Unit].AppendBatch(fresh); err != nil {
			return u.contig, len(u.pending) > 0, fmt.Errorf("replica: standby append: %w", err)
		}
		for _, rec := range fresh {
			u.markLocked(rec.LSN)
		}
	}
	sb.stats.BatchesReceived++
	sb.stats.RecordsReceived += uint64(len(fresh))
	gap = len(u.pending) > 0
	if gap && !u.gapOpen {
		sb.stats.Gaps++
	}
	u.gapOpen = gap
	u.batches++
	if u.batches%uint64(sb.opts.PersistEvery) == 0 {
		if rm, ok := sb.opts.Backends[batch.Unit].(storage.ReplicationMarker); ok {
			_ = rm.SetReplicationWatermark(u.contig)
		}
	}
	return u.contig, gap, nil
}

// onMessage receives asynchronous ship batches.
func (sb *Standby) onMessage(from clock.NodeID, payload interface{}) {
	if batch, ok := payload.(ShipBatch); ok {
		_, _, _ = sb.Receive(batch)
	}
}

// onRequest receives synchronous ship batches and serves catch-up requests
// from the standby's own log (a promoting peer unions the surviving tails
// this way).
func (sb *Standby) onRequest(from clock.NodeID, payload interface{}) (interface{}, error) {
	switch msg := payload.(type) {
	case ShipBatch:
		watermark, _, err := sb.Receive(msg)
		if err != nil {
			return nil, err
		}
		return shipAck{Unit: msg.Unit, Watermark: watermark}, nil
	case catchupRequest:
		return sb.serveCatchup(msg)
	default:
		return nil, fmt.Errorf("replica: unknown request %T", payload)
	}
}

// serveCatchup streams one chunk of the standby's received log after an LSN.
func (sb *Standby) serveCatchup(req catchupRequest) (interface{}, error) {
	sb.mu.Lock()
	if req.Unit < 0 || req.Unit >= len(sb.opts.Backends) {
		sb.mu.Unlock()
		return nil, fmt.Errorf("replica: unknown unit %d", req.Unit)
	}
	backend := sb.opts.Backends[req.Unit]
	sb.mu.Unlock()
	limit := req.Limit
	if limit <= 0 || limit > sb.opts.CatchupChunk {
		limit = sb.opts.CatchupChunk
	}
	recs, err := TailAfter(backend, req.After, limit)
	if err != nil {
		return nil, err
	}
	chunk, more := chunkTail(recs, limit)
	return catchupResponse{Records: chunk, More: more}, nil
}

// ServeCatchup returns one streaming chunk of the standby's received log —
// the transport-agnostic body of the catch-up handler, which cmd/soupsd
// exposes over HTTP for operator-driven healing and promotion unions.
func (sb *Standby) ServeCatchup(unit int, after uint64, limit int) ([]lsdb.Record, bool, error) {
	resp, err := sb.serveCatchup(catchupRequest{Unit: unit, After: after, Limit: limit})
	if err != nil {
		return nil, false, err
	}
	cr := resp.(catchupResponse)
	return cr.Records, cr.More, nil
}

// errTailFull stops a bounded TailAfter stream once it holds its chunk.
var errTailFull = errors.New("replica: tail chunk full")

// TailAfter collects a backend's records after an LSN through its
// storage.Streamer (every bundled backend is one). With limit > 0 it stops the
// stream once it holds limit+1 records — the one past the limit tells
// chunkTail there is more — so serving a chunk reads that chunk and not the
// whole tail; limit <= 0 collects everything. A log holding any frame but
// appends fails with storage.ErrCompacted.
func TailAfter(backend storage.Backend, after uint64, limit int) ([]lsdb.Record, error) {
	st, ok := backend.(storage.Streamer)
	if !ok {
		return nil, fmt.Errorf("replica: backend %T does not stream", backend)
	}
	var recs []lsdb.Record
	err := st.StreamAfter(after, func(rec storage.WALRecord) error {
		if recs = append(recs, rec); limit > 0 && len(recs) > limit {
			return errTailFull
		}
		return nil
	})
	if err != nil && !errors.Is(err, errTailFull) {
		return nil, err
	}
	return recs, nil
}

// fetchTail pulls one catch-up chunk of unit from a peer: the records after
// the cursor, and whether the peer's tail continues past them.
func (sb *Standby) fetchTail(from clock.NodeID, unit int, after uint64) ([]lsdb.Record, bool, error) {
	req := catchupRequest{Unit: unit, After: after, Limit: sb.opts.CatchupChunk}
	resp, err := sb.opts.Net.Request(sb.opts.Self, from, req, sb.opts.Timeout)
	if err != nil {
		return nil, false, err
	}
	cr, ok := resp.(catchupResponse)
	if !ok {
		return nil, false, fmt.Errorf("replica: unexpected catch-up response %T", resp)
	}
	sb.mu.Lock()
	sb.stats.CatchupRounds++
	sb.stats.CatchupRecords += uint64(len(cr.Records))
	sb.mu.Unlock()
	return cr.Records, cr.More, nil
}

// advanceCursor returns the streaming cursor after one chunk: the highest
// LSN received, and whether it moved (a chunk that advances nothing ends the
// stream — the server's cut rule makes that equivalent to More being false).
func advanceCursor(cursor uint64, recs []lsdb.Record) (uint64, bool) {
	advanced := false
	for _, rec := range recs {
		if rec.LSN > cursor {
			cursor, advanced = rec.LSN, true
		}
	}
	return cursor, advanced
}

// errFetch marks a CatchUp failure on the peer's side of the stream — the
// transport, the peer's reply, or a standby with no network to ask on — as
// opposed to this standby's own backend refusing an append.
var errFetch = errors.New("replica: catch-up fetch")

// CatchUp streams the records of one unit after the standby's contiguous
// watermark from a peer — the primary (served from its store) or another
// standby (served from its received log) — in bounded chunks over repeated
// requests, appending the fresh ones as they arrive. The stream is resumable
// by construction: each round asks after the highest append LSN received, so
// an interrupted catch-up continues where it left off on the next call. It
// returns how many records the peer sent. A failed fetch is wrapped around
// errFetch; any other error is the standby's own append failing.
func (sb *Standby) CatchUp(from clock.NodeID, unit int) (int, error) {
	if sb.opts.Net == nil {
		return 0, fmt.Errorf("%w: standby has no network", errFetch)
	}
	total := 0
	cursor := sb.Watermark(unit)
	for {
		recs, more, err := sb.fetchTail(from, unit, cursor)
		if err != nil {
			return total, fmt.Errorf("%w from %s: %w", errFetch, from, err)
		}
		if len(recs) == 0 {
			return total, nil
		}
		total += len(recs)
		if _, _, err := sb.Receive(ShipBatch{From: from, Unit: unit, Records: recs}); err != nil {
			return total, err
		}
		var advanced bool
		cursor, advanced = advanceCursor(cursor, recs)
		if !more || !advanced {
			return total, nil
		}
	}
}

// Fence is the first half of a promotion: it catches each unit up from
// every peer, then stops the standby, so the returned backends hold the
// union of the surviving logs (per-write quorums can scatter acked batches
// across standbys, so no single log is guaranteed complete) and nothing more
// will be appended to them. A peer whose fetch fails is skipped — an
// unreachable peer is usually why promotion is happening. A local append
// failure is returned before Stop, so the standby keeps receiving and a
// retry resumes the catch-up where it failed. The second half is replaying
// the backends through lsdb.Recover (core.Open does it per unit).
func (sb *Standby) Fence(peers []clock.NodeID) ([]storage.Backend, error) {
	for _, peer := range peers {
		if peer == sb.opts.Self {
			continue
		}
		for unit := range sb.opts.Backends {
			if _, err := sb.CatchUp(peer, unit); err != nil && !errors.Is(err, errFetch) {
				return nil, fmt.Errorf("replica: fencing unit %d from %s: %w", unit, peer, err)
			}
		}
	}
	sb.Stop()
	return sb.Backends(), nil
}

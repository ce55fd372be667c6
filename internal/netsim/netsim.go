// Package netsim simulates the network between serialization units and
// replicas: configurable latency, message loss and partitions.
//
// The paper argues from the CAP principle that partitions and latency force
// the consistency trade-offs its principles address; the authors' context is
// real SAP landscapes and internet-scale systems. This repository substitutes
// an in-process simulated network so the CAP experiments (E5, E7) exercise
// the production WAL-shipping code paths — blocked quorum acks, lagging
// standbys, catch-up after healing — on a single machine. See DESIGN.md,
// substitution 1.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
)

// Common errors.
var (
	// ErrUnknownNode is returned when sending to or from an unregistered node.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrUnreachable is returned when a partition separates the two nodes.
	ErrUnreachable = errors.New("netsim: unreachable (partitioned)")
	// ErrDropped is returned when the simulated transport lost the message.
	ErrDropped = errors.New("netsim: message dropped")
	// ErrTimeout is returned when a request's handler did not answer in time.
	ErrTimeout = errors.New("netsim: request timeout")
	// ErrNoHandler is returned when the destination registered no request
	// handler.
	ErrNoHandler = errors.New("netsim: no request handler")
)

// Config sets the fault and latency model of a simulated network.
type Config struct {
	// BaseLatency is the one-way delivery delay before jitter.
	BaseLatency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// LossRate is the probability (0..1) that an async message is silently
	// dropped. Requests are never silently dropped; they fail with
	// ErrDropped so callers can retry.
	LossRate float64
	// UnreachableDelay is how long a request to a partitioned node takes to
	// fail, modelling a timeout at the caller.
	UnreachableDelay time.Duration
	// Seed makes the loss/jitter sequence deterministic (0 uses a fixed
	// default so tests are reproducible).
	Seed int64
}

// LinkFault is a directional fault override for one from→to link, layered on
// top of the network-wide Config. The fault-injection harness scripts these
// per link so a schedule can degrade exactly one direction of one connection
// — a flaky primary→standby path, an asymmetric partition — while the rest of
// the fabric stays healthy.
type LinkFault struct {
	// Block makes the link behave like a partition: async sends are
	// silently discarded, requests fail with ErrUnreachable.
	Block bool
	// Loss is an additional independent drop probability (0..1) applied
	// after the network-wide LossRate.
	Loss float64
	// ExtraLatency is added to each one-way traversal of the link.
	ExtraLatency time.Duration
}

type linkKey struct {
	from, to clock.NodeID
}

// Handler consumes asynchronous messages delivered to a node.
type Handler func(from clock.NodeID, payload interface{})

// RequestHandler answers synchronous requests sent to a node.
type RequestHandler func(from clock.NodeID, payload interface{}) (interface{}, error)

// stats counts what happened on the wire.
type stats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64
	Blocked     uint64
	Requests    uint64
	RequestFail uint64
}

type node struct {
	handler    Handler
	reqHandler RequestHandler
}

// Network is a simulated message fabric between named nodes. All methods are
// safe for concurrent use.
type Network struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	nodes  map[clock.NodeID]*node
	groups map[clock.NodeID]int // partition group per node; all zero = healed
	links  map[linkKey]LinkFault
	stats  stats
	wg     sync.WaitGroup
	closed bool
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	if cfg.UnreachableDelay <= 0 {
		cfg.UnreachableDelay = 5 * time.Millisecond
	}
	return &Network{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  map[clock.NodeID]*node{},
		groups: map[clock.NodeID]int{},
		links:  map[linkKey]LinkFault{},
	}
}

// Register adds a node with an async message handler (may be nil).
func (n *Network) Register(id clock.NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	existing := n.nodes[id]
	if existing == nil {
		existing = &node{}
		n.nodes[id] = existing
	}
	existing.handler = h
	if _, ok := n.groups[id]; !ok {
		n.groups[id] = 0
	}
}

// RegisterRequestHandler sets the synchronous request handler of a node.
func (n *Network) RegisterRequestHandler(id clock.NodeID, h RequestHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	existing := n.nodes[id]
	if existing == nil {
		existing = &node{}
		n.nodes[id] = existing
	}
	existing.reqHandler = h
	if _, ok := n.groups[id]; !ok {
		n.groups[id] = 0
	}
}

// Partition splits the nodes into isolated groups: nodes in different groups
// cannot exchange messages until Heal is called. Nodes not mentioned stay in
// group 0.
func (n *Network) Partition(groups ...[]clock.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.groups {
		n.groups[id] = 0
	}
	for gi, group := range groups {
		for _, id := range group {
			n.groups[id] = gi + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.groups {
		n.groups[id] = 0
	}
}

// SetLinkFault installs (or replaces) the directional fault override on the
// from→to link. The zero LinkFault clears any override, same as
// ClearLinkFault.
func (n *Network) SetLinkFault(from, to clock.NodeID, f LinkFault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey{from, to}
	if f == (LinkFault{}) {
		delete(n.links, key)
		return
	}
	n.links[key] = f
}

// ClearLinkFault removes the directional fault override on the from→to link.
func (n *Network) ClearLinkFault(from, to clock.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{from, to})
}

// ClearLinkFaults removes every per-link fault override. Partitions and the
// network-wide Config are unaffected.
func (n *Network) ClearLinkFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = map[linkKey]LinkFault{}
}

// SetLossRate changes the async loss probability at runtime.
func (n *Network) SetLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossRate = p
}

// snapshotStats returns a copy of the wire counters.
func (n *Network) snapshotStats() stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// latencyLocked samples a one-way delay.
func (n *Network) latencyLocked() time.Duration {
	d := n.cfg.BaseLatency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return d
}

// Send delivers payload asynchronously to the destination's handler after the
// simulated latency. It returns an error only for immediately detectable
// conditions (unknown node); loss and partitions silently discard the
// message, exactly like a real datagram network.
func (n *Network) Send(from, to clock.NodeID, payload interface{}) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("netsim: closed")
	}
	dst, ok := n.nodes[to]
	if !ok || dst.handler == nil {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if _, ok := n.nodes[from]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	n.stats.Sent++
	fault := n.links[linkKey{from, to}]
	if n.groups[from] != n.groups[to] || fault.Block {
		n.stats.Blocked++
		n.mu.Unlock()
		return nil
	}
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	if fault.Loss > 0 && n.rng.Float64() < fault.Loss {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := n.latencyLocked() + fault.ExtraLatency
	handler := dst.handler
	n.wg.Add(1)
	n.mu.Unlock()

	deliver := func() {
		defer n.wg.Done()
		handler(from, payload)
		n.mu.Lock()
		n.stats.Delivered++
		n.mu.Unlock()
	}
	if delay <= 0 {
		go deliver()
	} else {
		time.AfterFunc(delay, deliver)
	}
	return nil
}

// Request performs a synchronous round trip to the destination's request
// handler, paying the simulated latency both ways. Partitions make it fail
// with ErrUnreachable after UnreachableDelay (the caller-side timeout);
// losses make it fail with ErrDropped so the caller can retry.
//
// The handler runs on its own goroutine and its response is returned through
// a reply slot private to this call. When the round trip exceeds timeout the
// caller gets ErrTimeout and the late response is discarded with the slot —
// it can never surface as the answer to a later request — but the handler
// still runs, so destination-side effects happen exactly as they would on a
// real network where only the ack was lost.
func (n *Network) Request(from, to clock.NodeID, payload interface{}, timeout time.Duration) (interface{}, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("netsim: closed")
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if dst.reqHandler == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, to)
	}
	n.stats.Requests++
	fault := n.links[linkKey{from, to}]
	if n.groups[from] != n.groups[to] || fault.Block {
		n.stats.RequestFail++
		wait := n.cfg.UnreachableDelay
		n.mu.Unlock()
		if timeout > 0 && timeout < wait {
			wait = timeout
		}
		time.Sleep(wait)
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.stats.RequestFail++
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrDropped, from, to)
	}
	if fault.Loss > 0 && n.rng.Float64() < fault.Loss {
		n.stats.RequestFail++
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrDropped, from, to)
	}
	there := n.latencyLocked() + fault.ExtraLatency
	back := n.latencyLocked() + n.links[linkKey{to, from}].ExtraLatency
	handler := dst.reqHandler
	n.wg.Add(1)
	n.mu.Unlock()

	type result struct {
		resp interface{}
		err  error
	}
	reply := make(chan result, 1) // private slot: a late response parks here and is garbage collected
	go func() {
		defer n.wg.Done()
		if there > 0 {
			time.Sleep(there)
		}
		resp, err := handler(from, payload)
		if back > 0 {
			time.Sleep(back)
		}
		reply <- result{resp, err}
	}()

	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case r := <-reply:
		if r.err != nil {
			n.mu.Lock()
			n.stats.RequestFail++
			n.mu.Unlock()
			return nil, r.err
		}
		return r.resp, nil
	case <-expired:
		n.mu.Lock()
		n.stats.RequestFail++
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s after %v", ErrTimeout, from, to, timeout)
	}
}

// Quiesce blocks until all in-flight asynchronous deliveries have completed.
// Tests and the convergence experiment use it to wait for the network to
// drain.
func (n *Network) Quiesce() {
	n.wg.Wait()
}

// Close marks the network closed; subsequent Sends fail. In-flight messages
// still deliver.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

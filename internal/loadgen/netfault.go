package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/netsim"
)

// FaultTransport wraps an http.RoundTripper with internal/netsim's fault
// vocabulary, applied at the client edge: base latency and jitter, message
// loss, and a schedulable LinkFault window (partition, extra loss, extra
// latency). The replication harness injects these faults on the in-process
// netsim fabric between nodes; the SLO harness drives soupsd over real HTTP,
// so the same model is applied to the client↔server link instead — a request
// that the simulated network loses or partitions away fails without ever
// reaching the server, exactly like netsim.Request, and is still charged
// against its intended send time.
type FaultTransport struct {
	base http.RoundTripper // performs the real round trips

	mu    sync.Mutex
	cfg   netsim.Config
	fault netsim.LinkFault
	rng   *rand.Rand
}

// NewFaultTransport wraps base with the given steady-state network model.
// The zero Config adds nothing until a fault window opens.
func NewFaultTransport(base http.RoundTripper, cfg netsim.Config) *FaultTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	if cfg.UnreachableDelay <= 0 {
		cfg.UnreachableDelay = 5 * time.Millisecond
	}
	return &FaultTransport{base: base, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// setFault opens (or replaces) the fault window: Block makes every request
// fail unreachable after the configured caller-side timeout, Loss drops the
// given fraction, ExtraLatency stretches each traversal. The zero LinkFault
// heals the link.
func (t *FaultTransport) setFault(f netsim.LinkFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fault = f
}

// Window is a phase Fault that opens f on t for the duration of the phase
// and heals the link after it.
func (t *FaultTransport) Window(f netsim.LinkFault) Fault {
	return Fault{
		Begin: func() error { t.setFault(f); return nil },
		End:   func() error { t.setFault(netsim.LinkFault{}); return nil },
	}
}

// sample draws this request's fate under the lock: blocked, lost, or the
// one-way delays to pay around the real round trip.
func (t *FaultTransport) sample() (blocked bool, lost bool, there, back time.Duration, unreachable time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fault.Block {
		return true, false, 0, 0, t.cfg.UnreachableDelay
	}
	if t.cfg.LossRate > 0 && t.rng.Float64() < t.cfg.LossRate {
		return false, true, 0, 0, 0
	}
	if t.fault.Loss > 0 && t.rng.Float64() < t.fault.Loss {
		return false, true, 0, 0, 0
	}
	oneway := func() time.Duration {
		d := t.cfg.BaseLatency + t.fault.ExtraLatency
		if t.cfg.Jitter > 0 {
			d += time.Duration(t.rng.Int63n(int64(t.cfg.Jitter)))
		}
		return d
	}
	return false, false, oneway(), oneway(), 0
}

// RoundTrip applies the fault model around the base round trip. Blocked and
// lost requests fail with netsim.ErrUnreachable / netsim.ErrDropped (wrapped)
// without touching the network, so the caller can classify them as
// definitely-not-applied when auditing acked writes.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	blocked, lost, there, back, unreachable := t.sample()
	if blocked {
		select {
		case <-time.After(unreachable):
		case <-req.Context().Done():
		}
		return nil, fmt.Errorf("%w: client link to %s", netsim.ErrUnreachable, req.URL.Host)
	}
	if lost {
		return nil, fmt.Errorf("%w: client link to %s", netsim.ErrDropped, req.URL.Host)
	}
	if there > 0 {
		select {
		case <-time.After(there):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if back > 0 {
		select {
		case <-time.After(back):
		case <-req.Context().Done():
			resp.Body.Close()
			return nil, req.Context().Err()
		}
	}
	return resp, nil
}

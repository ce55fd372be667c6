package netsim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestSendDelivers(t *testing.T) {
	n := New(Config{})
	var got atomic.Value
	done := make(chan struct{})
	n.Register("a", nil)
	n.Register("b", func(from clock.NodeID, payload interface{}) {
		got.Store(payload)
		close(done)
	})
	if err := n.Send("a", "b", "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
	if got.Load() != "hello" {
		t.Fatalf("payload = %v", got.Load())
	}
	st := n.snapshotStats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendUnknownNode(t *testing.T) {
	n := New(Config{})
	n.Register("a", func(clock.NodeID, interface{}) {})
	if err := n.Send("a", "ghost", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
	if err := n.Send("ghost", "a", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown sender: %v", err)
	}
}

func TestSendWithLatency(t *testing.T) {
	n := New(Config{BaseLatency: 30 * time.Millisecond})
	delivered := make(chan time.Time, 1)
	n.Register("a", nil)
	n.Register("b", func(clock.NodeID, interface{}) { delivered <- time.Now() })
	start := time.Now()
	n.Send("a", "b", 1)
	select {
	case at := <-delivered:
		if at.Sub(start) < 20*time.Millisecond {
			t.Fatalf("delivered too fast: %v", at.Sub(start))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never delivered")
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	n := New(Config{})
	var count atomic.Int64
	n.Register("a", func(clock.NodeID, interface{}) { count.Add(1) })
	n.Register("b", func(clock.NodeID, interface{}) { count.Add(1) })
	n.Register("c", func(clock.NodeID, interface{}) { count.Add(1) })
	n.Partition([]clock.NodeID{"a"}, []clock.NodeID{"b", "c"})
	n.Send("a", "b", 1) // blocked
	n.Send("b", "c", 1) // delivered
	n.Quiesce()
	if count.Load() != 1 {
		t.Fatalf("delivered = %d, want 1", count.Load())
	}
	st := n.snapshotStats()
	if st.Blocked != 1 {
		t.Fatalf("Blocked = %d", st.Blocked)
	}
	n.Heal()
	n.Send("a", "b", 2)
	n.Quiesce()
	if count.Load() != 2 {
		t.Fatalf("delivered after heal = %d", count.Load())
	}
}

func TestLossRateDropsSomeMessages(t *testing.T) {
	n := New(Config{LossRate: 0.5, Seed: 7})
	var count atomic.Int64
	n.Register("a", nil)
	n.Register("b", func(clock.NodeID, interface{}) { count.Add(1) })
	const total = 200
	for i := 0; i < total; i++ {
		n.Send("a", "b", i)
	}
	n.Quiesce()
	st := n.snapshotStats()
	if st.Dropped == 0 {
		t.Fatal("no messages dropped at 50% loss")
	}
	if st.Delivered == 0 {
		t.Fatal("all messages dropped at 50% loss")
	}
	if st.Delivered+st.Dropped != total {
		t.Fatalf("delivered %d + dropped %d != %d", st.Delivered, st.Dropped, total)
	}
	if int64(st.Delivered) != count.Load() {
		t.Fatalf("stats delivered %d != handler count %d", st.Delivered, count.Load())
	}
}

func TestDeterministicLossWithSeed(t *testing.T) {
	run := func() uint64 {
		n := New(Config{LossRate: 0.3, Seed: 99})
		n.Register("a", nil)
		n.Register("b", func(clock.NodeID, interface{}) {})
		for i := 0; i < 100; i++ {
			n.Send("a", "b", i)
		}
		n.Quiesce()
		return n.snapshotStats().Dropped
	}
	if run() != run() {
		t.Fatal("same seed produced different loss patterns")
	}
}

func TestRequestResponse(t *testing.T) {
	n := New(Config{})
	n.Register("client", nil)
	n.RegisterRequestHandler("server", func(from clock.NodeID, payload interface{}) (interface{}, error) {
		return payload.(int) * 2, nil
	})
	resp, err := n.Request("client", "server", 21, time.Second)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if resp.(int) != 42 {
		t.Fatalf("resp = %v", resp)
	}
	st := n.snapshotStats()
	if st.Requests != 1 || st.RequestFail != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRequestHandlerError(t *testing.T) {
	n := New(Config{})
	n.Register("client", nil)
	errBoom := errors.New("boom")
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) {
		return nil, errBoom
	})
	if _, err := n.Request("client", "server", 1, time.Second); !errors.Is(err, errBoom) {
		t.Fatalf("want handler error, got %v", err)
	}
	if n.snapshotStats().RequestFail != 1 {
		t.Fatal("RequestFail not counted")
	}
}

func TestRequestToPartitionedNode(t *testing.T) {
	n := New(Config{UnreachableDelay: 5 * time.Millisecond})
	n.Register("client", nil)
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) { return 1, nil })
	n.Partition([]clock.NodeID{"client"}, []clock.NodeID{"server"})
	start := time.Now()
	_, err := n.Request("client", "server", 1, time.Second)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("unreachable request returned without the simulated timeout delay")
	}
}

func TestRequestUnknownNodeAndNoHandler(t *testing.T) {
	n := New(Config{})
	n.Register("client", nil)
	if _, err := n.Request("client", "ghost", 1, time.Second); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("want ErrUnknownNode, got %v", err)
	}
	n.Register("plain", func(clock.NodeID, interface{}) {})
	if _, err := n.Request("client", "plain", 1, time.Second); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("want ErrNoHandler, got %v", err)
	}
}

func TestRequestTimeoutWhenLatencyTooHigh(t *testing.T) {
	n := New(Config{BaseLatency: 50 * time.Millisecond})
	n.Register("client", nil)
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) { return 1, nil })
	_, err := n.Request("client", "server", 1, 10*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

// Regression: a handler response that arrives after the caller timed out must
// be discarded with that request's private reply slot — it must never surface
// as the answer to a later request — while the handler's side effects still
// happen (only the ack was lost, not the work).
func TestRequestTimeoutDoesNotLeakLateResponse(t *testing.T) {
	n := New(Config{})
	n.Register("client", nil)
	var calls atomic.Int64
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
			return "SLOW", nil
		}
		return "FAST", nil
	})
	if _, err := n.Request("client", "server", 1, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first request: want ErrTimeout, got %v", err)
	}
	resp, err := n.Request("client", "server", 2, time.Second)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	if resp != "FAST" {
		t.Fatalf("second request got %v — the timed-out response leaked into a later reply slot", resp)
	}
	n.Quiesce()
	if calls.Load() != 2 {
		t.Fatalf("handler calls = %d, want 2 (timed-out request must still run its handler)", calls.Load())
	}
}

// Regression: even when the simulated rtt alone exceeds the timeout, the
// destination handler must run — on a real network the request is in flight
// and the server does the work; only the caller gives up waiting.
func TestRequestTimeoutStillInvokesHandler(t *testing.T) {
	n := New(Config{BaseLatency: 30 * time.Millisecond})
	n.Register("client", nil)
	var invoked atomic.Bool
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) {
		invoked.Store(true)
		return 1, nil
	})
	if _, err := n.Request("client", "server", 1, 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	n.Quiesce()
	if !invoked.Load() {
		t.Fatal("handler never invoked for a request that timed out at the caller")
	}
}

func TestLinkFaultBlockIsDirectional(t *testing.T) {
	n := New(Config{UnreachableDelay: time.Millisecond})
	var got atomic.Int64
	n.Register("a", func(clock.NodeID, interface{}) { got.Add(1) })
	n.Register("b", func(clock.NodeID, interface{}) { got.Add(1) })
	n.RegisterRequestHandler("b", func(clock.NodeID, interface{}) (interface{}, error) { return 1, nil })
	n.SetLinkFault("a", "b", LinkFault{Block: true})
	n.Send("a", "b", 1) // blocked
	n.Send("b", "a", 2) // unaffected direction
	n.Quiesce()
	if got.Load() != 1 {
		t.Fatalf("delivered = %d, want 1 (a->b blocked, b->a open)", got.Load())
	}
	if _, err := n.Request("a", "b", 1, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("request over blocked link: want ErrUnreachable, got %v", err)
	}
	n.ClearLinkFault("a", "b")
	n.Send("a", "b", 3)
	n.Quiesce()
	if got.Load() != 2 {
		t.Fatal("link did not recover after ClearLinkFault")
	}
}

func TestLinkFaultLossAndLatency(t *testing.T) {
	n := New(Config{})
	var got atomic.Int64
	n.Register("a", nil)
	n.Register("b", func(clock.NodeID, interface{}) { got.Add(1) })
	n.SetLinkFault("a", "b", LinkFault{Loss: 1.0})
	n.Send("a", "b", 1)
	n.Quiesce()
	if got.Load() != 0 {
		t.Fatal("message survived 100% link loss")
	}
	n.SetLinkFault("a", "b", LinkFault{ExtraLatency: 50 * time.Millisecond})
	n.RegisterRequestHandler("b", func(clock.NodeID, interface{}) (interface{}, error) { return 1, nil })
	if _, err := n.Request("a", "b", 1, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow link: want ErrTimeout, got %v", err)
	}
	n.ClearLinkFaults()
	if _, err := n.Request("a", "b", 1, time.Second); err != nil {
		t.Fatalf("after ClearLinkFaults: %v", err)
	}
	n.Quiesce()
}

func TestRequestLoss(t *testing.T) {
	n := New(Config{LossRate: 1.0})
	n.Register("client", nil)
	n.RegisterRequestHandler("server", func(clock.NodeID, interface{}) (interface{}, error) { return 1, nil })
	if _, err := n.Request("client", "server", 1, time.Second); !errors.Is(err, ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
}

func TestSetLatencyAndLossAtRuntime(t *testing.T) {
	n := New(Config{})
	n.Register("a", nil)
	var count atomic.Int64
	n.Register("b", func(clock.NodeID, interface{}) { count.Add(1) })
	n.SetLossRate(1.0)
	n.Send("a", "b", 1)
	n.Quiesce()
	if count.Load() != 0 {
		t.Fatal("message delivered despite 100% loss")
	}
	n.SetLossRate(0)
	n.Send("a", "b", 2)
	n.Quiesce()
	if count.Load() != 1 {
		t.Fatal("message not delivered after loss reset")
	}
}

func TestCloseStopsSends(t *testing.T) {
	n := New(Config{})
	n.Register("a", nil)
	n.Register("b", func(clock.NodeID, interface{}) {})
	n.Close()
	if err := n.Send("a", "b", 1); err == nil {
		t.Fatal("Send after Close should fail")
	}
}

func TestConcurrentSendsSafe(t *testing.T) {
	n := New(Config{Jitter: time.Millisecond})
	var count atomic.Int64
	n.Register("a", nil)
	n.Register("b", func(clock.NodeID, interface{}) { count.Add(1) })
	var wg sync.WaitGroup
	const senders, per = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send("a", "b", i)
			}
		}()
	}
	wg.Wait()
	n.Quiesce()
	if count.Load() != senders*per {
		t.Fatalf("delivered = %d, want %d", count.Load(), senders*per)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// A stream is a workload's seeded, stateless request sequence: request i is
// a pure function of (seed, i), so two clients can share one atomic cursor,
// two builds see byte-identical inputs, and the expected state of any key can
// be recomputed afterwards by folding the requests that were issued.
type stream interface {
	// at returns request i; ok is false once the stream has none left (a key
	// space meant to be touched at most once is used up).
	at(i uint64) (req loadgen.Request, ok bool)
}

// Frozen sizes. They were calibrated at the commit that added the benchmark
// so that, on the 2-core sandbox, a 10 s timed phase never uses up a key
// space and the durable store goes through several flushes and at least one
// compaction per unit. -scale multiplies the key spaces and warm-ups (the
// tests use 0.01); BENCHMARK.json is measured at scale 1.
const (
	memEntities     = 1000000 // loadgen.Scenarios key space, http_mem_mixed
	durableEntities = 100000  // loadgen.Scenarios key space, http_durable_write
	coldReadKeys    = 200000  // Account keys read at most once, http_tiered_coldread
	coldWriteKeys   = 40000   // Account keys the 10 % deltas land on
	eventOrders     = 50000   // Order key space, kernel_events
	eventItems      = 1000    // Inventory key space (zipfian s=1.1), kernel_events
	eventWindow     = 64      // chains in flight, kernel_events

	warmupMem     = 5000
	warmupDurable = 2000
	warmupCold    = 500
	warmupEvents  = 5000
)

func scaled(n int, scale float64) uint64 {
	v := uint64(float64(n) * scale)
	if v < 16 {
		v = 16
	}
	return v
}

// --- http_mem_mixed ---------------------------------------------------------

// mixedStream interleaves the banking, inventory and crm scenarios of the
// SLO harness (bookstore is left out: one entity with unbounded history
// makes the cost of a run quadratic in its length).
type mixedStream struct{ sc []loadgen.Scenario }

func newMixedStream(entities, seed uint64) (*mixedStream, error) {
	sc, err := loadgen.Scenarios("banking,inventory,crm", entities, seed)
	if err != nil {
		return nil, err
	}
	return &mixedStream{sc: sc}, nil
}

func (m *mixedStream) at(i uint64) (loadgen.Request, bool) {
	n := uint64(len(m.sc))
	return m.sc[i%n].Request(i / n), true
}

// --- http_durable_write -----------------------------------------------------

// durableStream is nine writes in ten — the Submit-class requests of the same
// three scenarios — and one read in ten of a key written shortly before, so
// that the read metrics exist on this workload too and every run reads its
// own writes back while it goes.
type durableStream struct {
	sc   []loadgen.Scenario
	seed uint64
}

func newDurableStream(entities, seed uint64) (*durableStream, error) {
	sc, err := loadgen.Scenarios("banking,inventory,crm", entities, seed)
	if err != nil {
		return nil, err
	}
	return &durableStream{sc: sc, seed: seed}, nil
}

func (d *durableStream) isRead(i uint64) bool {
	return i > 0 && workload.Mix(d.seed^0xd0, i)%10 == 0
}

// write returns the Submit-class request of slot i: the first one at or after
// position 4·(i/3) of the slot's scenario. (Two slots can resolve to the same
// request when four in a row are reads or queries; the fold that recomputes
// expected values replays exactly what was sent, so that is harmless.)
func (d *durableStream) write(i uint64) loadgen.Request {
	n := uint64(len(d.sc))
	for j := 4 * (i / n); ; j++ {
		if r := d.sc[i%n].Request(j); r.Class == loadgen.Submit {
			return r
		}
	}
}

func (d *durableStream) at(i uint64) (loadgen.Request, bool) {
	if !d.isRead(i) {
		return d.write(i), true
	}
	// Read the key of a write slot 1..64 slots back; slot 0 is always a write.
	j := i - 1 - (workload.Mix(d.seed^0xd1, i)%64)%i
	for d.isRead(j) {
		j--
	}
	w := d.write(j)
	return loadgen.Request{Scenario: w.Scenario, Class: loadgen.Read, Method: "GET", Path: w.Path}, true
}

// --- http_tiered_coldread ---------------------------------------------------

// coldStream reads each preloaded Account at most once (slot i reads key
// Stride(i, reads), a bijection on the read keys, so every read is a cold,
// bloom-guided table lookup) and lands one delta in ten slots on a disjoint
// key range, so flushes and compaction keep running beside the reads. The
// stream ends when the read keys are used up rather than wrapping onto keys
// the server has already warmed.
type coldStream struct {
	seed          uint64
	reads, writes uint64
}

func acctID(k uint64) string { return fmt.Sprintf("acct-%d", k) }

// preloadBalance is the balance Account k is created with.
func (c *coldStream) preloadBalance(k uint64) float64 {
	return float64(1 + workload.Mix(c.seed^0xc0, k)%100000)
}

func (c *coldStream) isWrite(i uint64) bool { return workload.Mix(c.seed^0xc1, i)%10 == 0 }

func (c *coldStream) writeKey(i uint64) uint64 { return c.reads + workload.Stride(i, c.writes) }

func (c *coldStream) at(i uint64) (loadgen.Request, bool) {
	if i >= c.reads {
		return loadgen.Request{}, false
	}
	if c.isWrite(i) {
		return loadgen.Request{Scenario: "cold", Class: loadgen.Submit, Method: "POST",
			Path: "/entities/Account/" + acctID(c.writeKey(i)),
			Body: fmt.Sprintf(`{"delta":{"balance":%d},"describe":"cold delta %d"}`, 1+i%7, i)}, true
	}
	return loadgen.Request{Scenario: "cold", Class: loadgen.Read, Method: "GET",
		Path: "/entities/Account/" + acctID(workload.Stride(i, c.reads))}, true
}

// --- Requests as kernel calls and expected values -----------------------------

// opBody is the POST /entities body soupsd accepts.
type opBody struct {
	Set      map[string]interface{} `json:"set"`
	Delta    map[string]float64     `json:"delta"`
	Describe string                 `json:"describe"`
}

// requestKey parses "/entities/Type/ID" or "/history/Type/ID".
func requestKey(path string) (repro.Key, error) {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(parts) != 3 || parts[1] == "" || parts[2] == "" {
		return repro.Key{}, fmt.Errorf("bench: path %q is not /<surface>/Type/ID", path)
	}
	return repro.Key{Type: parts[1], ID: parts[2]}, nil
}

// requestOps turns a Submit request into the operations soupsd would apply,
// so the in-process rungs of the ladder run the same work as the HTTP rung.
func requestOps(req loadgen.Request) ([]repro.Op, error) {
	var body opBody
	if err := json.Unmarshal([]byte(req.Body), &body); err != nil {
		return nil, fmt.Errorf("bench: body of %s: %w", req.Path, err)
	}
	var ops []repro.Op
	for f, v := range body.Set {
		if n, ok := v.(float64); ok && n == float64(int64(n)) {
			v = int64(n)
		}
		ops = append(ops, repro.Set(f, v).Described(body.Describe))
	}
	for f, d := range body.Delta {
		ops = append(ops, repro.Delta(f, d).Described(body.Describe))
	}
	return ops, nil
}

// expectation folds Submit requests into the field values a later read of
// each touched path must return.
type expectation map[string]map[string]interface{}

func (e expectation) apply(req loadgen.Request) error {
	var body opBody
	if err := json.Unmarshal([]byte(req.Body), &body); err != nil {
		return fmt.Errorf("bench: body of %s: %w", req.Path, err)
	}
	fields := e[req.Path]
	if fields == nil {
		fields = map[string]interface{}{}
		e[req.Path] = fields
	}
	for f, v := range body.Set {
		fields[f] = v
	}
	for f, d := range body.Delta {
		prior, _ := fields[f].(float64)
		fields[f] = prior + d
	}
	return nil
}

// mismatch compares the fields a GET returned with the expected ones and
// describes the first difference ("" when they agree). Fields the workload
// never wrote are not looked at.
func mismatch(want map[string]interface{}, got map[string]interface{}) string {
	for f, w := range want {
		if g, ok := got[f]; !ok || g != w {
			return fmt.Sprintf("field %s: want %v, got %v", f, w, got[f])
		}
	}
	return ""
}

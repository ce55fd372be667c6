package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Gauge = %d, want 7", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Counter = %d, want 16000", c.Value())
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("txn.commits")
	c1.Inc()
	c2 := r.Counter("txn.commits")
	if c2.Value() != 1 {
		t.Fatalf("registry returned a different counter instance")
	}
	g := r.Gauge("queue.depth")
	g.Set(4)
	if r.Gauge("queue.depth").Value() != 4 {
		t.Fatal("registry returned a different gauge instance")
	}
	h := r.Histogram("latency")
	h.Record(time.Millisecond)
	if r.Histogram("latency").count() != 1 {
		t.Fatal("registry returned a different histogram instance")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.Histogram("c").Record(time.Millisecond)
	dump := r.Dump()
	for _, want := range []string{"counter a = 1", "gauge b = 2", "histogram c: n=1 mean=1ms p50=1ms p99=1ms p999=1ms max=1ms"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 1600 {
		t.Fatalf("shared counter = %d, want 1600", r.Counter("shared").Value())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("E1: sync vs deferred", "writers", "mode", "ops/sec", "p99")
	tbl.AddRow(8, "sync", 1234.5678, 40*time.Millisecond)
	tbl.AddRow(8, "deferred", 9999.0, 2*time.Millisecond)
	out := tbl.String()
	if !strings.Contains(out, "E1: sync vs deferred") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "deferred") || !strings.Contains(out, "9999") {
		t.Fatalf("missing row data:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if len(tbl.rowsCopy()) != 2 {
		t.Fatalf("Rows() = %d, want 2", len(tbl.rowsCopy()))
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(3.0)
	tbl.AddRow(1234.567)
	tbl.AddRow(0.12345)
	rows := tbl.rowsCopy()
	if rows[0][0] != "3" {
		t.Errorf("integral float rendered as %q", rows[0][0])
	}
	if rows[1][0] != "1234.6" {
		t.Errorf("large float rendered as %q", rows[1][0])
	}
	if rows[2][0] != "0.123" {
		t.Errorf("small float rendered as %q", rows[2][0])
	}
}

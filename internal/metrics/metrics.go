// Package metrics holds the repository's measurement primitives: the named
// counters, gauges and latency histograms a node exposes on /metrics
// (Registry), the one latency histogram type the node and the load
// generator share (Histogram), and the aligned plain-text and JSON tables
// cmd/soupsbench prints for experiment E23 (Table, TableJSON).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing concurrent counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge holds an instantaneous signed value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metric instruments, used by the kernel to
// expose per-node measurements to tests and the HTTP server.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Dump renders every instrument, sorted by name, one per line.
func (r *Registry) Dump() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s = %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		lines = append(lines, fmt.Sprintf("histogram %s: %s", name, h.Summary()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Table accumulates experiment results and renders them in aligned plain
// text (one table per experiment, the way an evaluation section would
// present them).
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	mu      sync.Mutex
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns a copy of the accumulated rows.
func (t *Table) Rows() [][]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

func formatFloat(f float64) string {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1e12:
		return fmt.Sprintf("%.0f", f)
	case math.Abs(f) >= 100:
		return fmt.Sprintf("%.1f", f)
	default:
		return fmt.Sprintf("%.3f", f)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

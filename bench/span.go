package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call at a layer boundary. Parent is the index of the
// span that caused it in the run's span slice, or -1; Op is the index of the
// workload operation it served, or -1 when the call serves several (a group
// commit) or none (a background flush). The name is an index into a table so
// that a span holds no pointer: a million of them in memory then cost the
// traced program no garbage-collector scanning, which would otherwise be
// most of the tracing overhead.
type span struct {
	Name   spanName
	Parent int32
	Start  int64
	End    int64
	Op     int64
}

func (s span) dur() int64 { return s.End - s.Start }

// MarshalJSON writes the span as the trace file shows it.
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int64  `json:"op"`
	}{s.Name.String(), s.Start, s.End, s.Parent, s.Op})
}

// spanName is an interned span name.
type spanName uint16

var spanNames struct {
	mu   sync.Mutex
	list []string
}

// nameOf interns name. Callers on a hot path intern once, ahead of time.
func nameOf(name string) spanName {
	spanNames.mu.Lock()
	defer spanNames.mu.Unlock()
	for i, n := range spanNames.list {
		if n == name {
			return spanName(i)
		}
	}
	spanNames.list = append(spanNames.list, name)
	return spanName(len(spanNames.list) - 1)
}

func (n spanName) String() string {
	spanNames.mu.Lock()
	defer spanNames.mu.Unlock()
	return spanNames.list[n]
}

// The spans the benchmark records.
var (
	spHTTP         = [3]spanName{nameOf("http.submit"), nameOf("http.read"), nameOf("http.query")} // by loadgen.Class
	spCoreUpdate   = nameOf("core.update")
	spCoreRead     = nameOf("core.read")
	spCoreHistory  = nameOf("core.history")
	spStoreAppend  = nameOf("storage.append")
	spStoreSync    = nameOf("storage.sync")
	spLSMSeal      = nameOf("lsm.seal")
	spLSMFlush     = nameOf("lsm.flush")
	spLSMLookup    = nameOf("lsm.lookup")
	spStepCreated  = nameOf("process.step.order.created")
	spStepReserve  = nameOf("process.step.inventory.reserve")
	spStepShipment = nameOf("process.step.shipment.create")
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run switches tracing off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

// now is the recorder's clock: nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span.
func (r *recorder) add(name spanName, start, end int64, op int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Op: op})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the sorted durations of every span called name.
func durations(spans []span, name spanName) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// total sums durations.
func total(ds []int64) (sum int64) {
	for _, d := range ds {
		sum += d
	}
	return sum
}

// adopt gives every span named in children the innermost span named in
// parents whose interval contains it (the one that started last), which is
// how a storage call made deep inside a kernel call finds the call that
// caused it without the program carrying an identifier down. A child no
// parent contains keeps Parent -1: background work has no causing request.
func adopt(spans []span, parents, children map[spanName]bool) {
	var ps []int
	for i, s := range spans {
		if parents[s.Name] {
			ps = append(ps, i)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return spans[ps[a]].Start < spans[ps[b]].Start })
	for i := range spans {
		c := &spans[i]
		if !children[c.Name] {
			continue
		}
		// Parents that start after the child cannot contain it.
		hi := sort.Search(len(ps), func(k int) bool { return spans[ps[k]].Start > c.Start })
		for k := hi - 1; k >= 0; k-- {
			p := spans[ps[k]]
			if p.End >= c.End {
				c.Parent = int32(ps[k])
				break
			}
			// Only a bounded number of requests are in flight at once, so a
			// containing parent, if any, is among the few most recent starts.
			if hi-k > 64 {
				break
			}
		}
	}
}

// selfTimes returns, for every span called name, its duration minus the part
// of its interval that its child spans cover (overlapping children are not
// counted twice), sorted.
func selfTimes(spans []span, name spanName) []int64 {
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == name {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.dur()-covered(kids[int32(i)], s.Start, s.End))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	cursor := lo
	for _, iv := range intervals {
		start, end := iv[0], iv[1]
		if start < cursor {
			start = cursor
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// writeSpans writes the trace file of a run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

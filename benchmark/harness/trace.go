package harness

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one traced interval. Spans of one request, epoch or pass share
// OpID; Parent is the index of the enclosing span in the trace, or -1.
// Times are nanoseconds since the tracer was created.
type Span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	OpID    int64  `json:"op_id"`
}

// Tracer records spans into a buffer preallocated at its full capacity, so
// recording never allocates; spans past the capacity are counted as
// dropped instead of evicting older ones, which keeps parent indices
// stable. All methods are safe for concurrent use and are no-ops on a nil
// Tracer, so a workload runs the same code traced and untraced.
type Tracer struct {
	t0    time.Time
	spans []Span
	next  atomic.Int64
}

// NewTracer returns a tracer that holds up to capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, capacity)}
}

// NoSpan is the parent of a root span, and the handle returned when
// nothing was recorded.
const NoSpan = int64(-1)

// Begin opens a span now and returns its handle, for End and for use as a
// child's parent.
func (t *Tracer) Begin(name, layer string, parent, opID int64) int64 {
	if t == nil {
		return NoSpan
	}
	return t.add(name, layer, time.Since(t.t0), -1, parent, opID)
}

// End closes the span h now.
func (t *Tracer) End(h int64) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].EndNs = int64(time.Since(t.t0))
}

// Record adds a span whose interval was measured elsewhere (a duration a
// layer reported about itself, such as a request's queue wait).
func (t *Tracer) Record(name, layer string, start time.Time, d time.Duration, parent, opID int64) int64 {
	if t == nil {
		return NoSpan
	}
	s := start.Sub(t.t0)
	return t.add(name, layer, s, s+d, parent, opID)
}

func (t *Tracer) add(name, layer string, start, end time.Duration, parent, opID int64) int64 {
	h := t.next.Add(1) - 1
	if h >= int64(len(t.spans)) {
		return NoSpan
	}
	t.spans[h] = Span{Name: name, Layer: layer, StartNs: int64(start), EndNs: int64(end), Parent: parent, OpID: opID}
	return h
}

// Dropped returns how many spans did not fit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return max(t.next.Load()-int64(len(t.spans)), 0)
}

// Spans returns the recorded spans in recording order. Call it after the
// traced work has been joined. A span that was never closed is returned
// with zero duration.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := t.spans[:min(t.next.Load(), int64(len(t.spans)))]
	for i := range out {
		if out[i].EndNs < out[i].StartNs {
			out[i].EndNs = out[i].StartNs
		}
	}
	return out
}

// SelfNs returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func SelfNs(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < int64(len(spans)) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// SelfMsByLayer sums self time per layer, in milliseconds.
func SelfMsByLayer(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range SelfNs(spans) {
		out[spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

// WriteTrace writes the spans as one JSON document: the span list plus
// the per-layer self-time totals derived from it.
func WriteTrace(w io.Writer, workload string, spans []Span, dropped int64) error {
	return json.NewEncoder(w).Encode(struct {
		Workload      string             `json:"workload"`
		Dropped       int64              `json:"dropped_spans"`
		SelfMsByLayer map[string]float64 `json:"self_ms_by_layer"`
		Spans         []Span             `json:"spans"`
	}{workload, dropped, SelfMsByLayer(spans), spans})
}

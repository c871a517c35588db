// Package telemetry is the zero-dependency observability layer of the
// kernel execution stack: counters, gauges and histograms for the metrics
// the paper's evaluation is built on (per-kernel run latency, rows/edges
// processed, plan-cache traffic, fallbacks, workpool utilization), plus a
// ring-buffer trace recorder (trace.go) that dumps Chrome trace_event JSON.
//
// Everything is off-by-default-cheap. Recording is gated by a single global
// atomic flag (Enabled); instrumented hot paths check it once and skip all
// metric work when it is off, so a disabled recorder costs the execution
// stack no more than a few atomic loads per kernel run — a budget pinned by
// BenchmarkTelemetryDisabledRunCtx and TestRunCtxZeroAllocTelemetryDisabled.
//
// Metrics are created at package init of the instrumented packages and live
// in a process-wide registry. Label sets are static and baked in at
// registration (e.g. kernel="spmm"), so recording is an atomic add with no
// map lookups or allocation; hot counters shared across worker slots use
// ShardedCounter to avoid cache-line ping-pong. Snapshot returns every
// series as (name, value) samples; WritePrometheus emits the standard
// Prometheus text exposition format.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// SetEnabled turns global metric recording on or off. Metrics themselves
// are always registered; this flag only controls whether the instrumented
// packages record into them.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric recording is on. Instrumented code checks
// it once per operation — this is the "few atomic loads" a disabled
// recorder is allowed to cost.
func Enabled() bool { return enabled.Load() }

// Sample is one metric series value in a Snapshot. Name is the full series
// name including any label set (and _bucket/_sum/_count suffixes for
// histogram series).
type Sample struct {
	Name  string
	Value float64
}

// collector is the registry-side interface of every metric type.
type collector interface {
	// family returns the base metric name (without labels) for the
	// # HELP / # TYPE header lines.
	family() (name, help, typ string)
	// collect appends this metric's series to dst.
	collect(dst []Sample) []Sample
}

var registry = struct {
	mu   sync.Mutex
	cols []collector
	seen map[string]bool // full series name -> registered
}{seen: map[string]bool{}}

// register adds c under the (name, labels) identity, panicking on
// duplicates: metrics are created in package var blocks, so a collision is
// a programming error, not a runtime condition.
func register(name, labels string, c collector) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	id := seriesName(name, labels)
	if registry.seen[id] {
		panic("telemetry: duplicate metric registration: " + id)
	}
	registry.seen[id] = true
	registry.cols = append(registry.cols, c)
}

// seriesName joins a base name and a static label set into the full series
// name, e.g. seriesName("x_total", `kernel="spmm"`) = `x_total{kernel="spmm"}`.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Snapshot returns the current value of every registered series, sorted by
// name. It is safe to call concurrently with recording.
func Snapshot() []Sample {
	registry.mu.Lock()
	cols := make([]collector, len(registry.cols))
	copy(cols, registry.cols)
	registry.mu.Unlock()
	var out []Sample
	for _, c := range cols {
		out = c.collect(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value returns the current value of the series with the given full name
// (including labels), and whether it exists. A convenience for tests and
// report generators.
func Value(name string) (float64, bool) {
	for _, s := range Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, with one # HELP / # TYPE header per metric family.
func WritePrometheus(w io.Writer) error {
	registry.mu.Lock()
	cols := make([]collector, len(registry.cols))
	copy(cols, registry.cols)
	registry.mu.Unlock()

	// Group collectors by family so multi-labeled instances of one metric
	// share a single header, as the format requires.
	type fam struct {
		name, help, typ string
		samples         []Sample
	}
	var order []string
	fams := map[string]*fam{}
	for _, c := range cols {
		name, help, typ := c.family()
		f := fams[name]
		if f == nil {
			f = &fam{name: name, help: help, typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		f.samples = c.collect(f.samples)
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].Name < f.samples[j].Name })
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in compact float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// --- Counter ---

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name, labels, help string
	v                  atomic.Uint64
}

// NewCounter registers and returns a counter. labels is a static,
// pre-rendered Prometheus label set ("" for none), e.g. `kernel="spmm"`.
func NewCounter(name, labels, help string) *Counter {
	c := &Counter{name: name, labels: labels, help: help}
	register(name, labels, c)
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

func (c *Counter) family() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) collect(dst []Sample) []Sample {
	return append(dst, Sample{seriesName(c.name, c.labels), float64(c.v.Load())})
}

// --- ShardedCounter ---

// shardCount is the number of slots a sharded counter spreads writes over.
// Power of two so the slot mask is a single AND; 32 covers the workpool's
// MaxRunners on any host we target.
const shardCount = 32

// paddedUint64 occupies a full cache line so adjacent shards do not false-
// share.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a counter for hot paths written concurrently by many
// worker slots: each slot adds to its own cache line and readers sum the
// shards. Use for per-chunk and per-block accounting inside the workpool.
type ShardedCounter struct {
	name, labels, help string
	shards             [shardCount]paddedUint64
}

// NewShardedCounter registers and returns a sharded counter.
func NewShardedCounter(name, labels, help string) *ShardedCounter {
	c := &ShardedCounter{name: name, labels: labels, help: help}
	register(name, labels, c)
	return c
}

// Add increments the counter by n on the shard of the given worker slot.
func (c *ShardedCounter) Add(slot int, n uint64) {
	c.shards[slot&(shardCount-1)].v.Add(n)
}

// Load returns the sum over all shards.
func (c *ShardedCounter) Load() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

func (c *ShardedCounter) family() (string, string, string) { return c.name, c.help, "counter" }
func (c *ShardedCounter) collect(dst []Sample) []Sample {
	return append(dst, Sample{seriesName(c.name, c.labels), float64(c.Load())})
}

// --- Gauge ---

// Gauge is a metric that can go up and down (queue depths, pool sizes).
type Gauge struct {
	name, labels, help string
	v                  atomic.Int64
}

// NewGauge registers and returns a gauge.
func NewGauge(name, labels, help string) *Gauge {
	g := &Gauge{name: name, labels: labels, help: help}
	register(name, labels, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) family() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) collect(dst []Sample) []Sample {
	return append(dst, Sample{seriesName(g.name, g.labels), float64(g.v.Load())})
}

// --- GaugeFunc ---

// gaugeFunc is a gauge whose value is computed at collection time — used
// for derived series (utilization ratios, cache occupancy) that would be
// wasteful to maintain on the hot path.
type gaugeFunc struct {
	name, labels, help string
	fn                 func() float64
}

// NewGaugeFunc registers a gauge evaluated by fn at every Snapshot /
// WritePrometheus. fn must be safe for concurrent use and must not call
// back into Snapshot.
func NewGaugeFunc(name, labels, help string, fn func() float64) {
	register(name, labels, &gaugeFunc{name: name, labels: labels, help: help, fn: fn})
}

func (g *gaugeFunc) family() (string, string, string) { return g.name, g.help, "gauge" }
func (g *gaugeFunc) collect(dst []Sample) []Sample {
	v := g.fn()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return append(dst, Sample{seriesName(g.name, g.labels), v})
}

// --- Histogram ---

// numDurationBuckets is the size of the 1-2-5 latency bucket ladder below.
const numDurationBuckets = 22

// durationBuckets are the upper bounds, in seconds, of the latency
// histogram buckets: a 1-2-5 ladder from 1µs to 10s. Kernel runs span
// roughly 10µs (tiny graphs) to seconds (full-scale GPU sims), so the
// ladder brackets the whole regime with ~3 buckets per decade.
var durationBuckets = [numDurationBuckets]float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with atomic bucket
// counters. Observe is lock-free: one atomic add into the matching bucket
// plus count/sum updates.
type Histogram struct {
	name, labels, help string
	buckets            [numDurationBuckets + 1]atomic.Uint64 // last = +Inf
	count              atomic.Uint64
	sumNanos           atomic.Uint64
}

// NewDurationHistogram registers and returns a histogram over the standard
// latency buckets.
func NewDurationHistogram(name, labels, help string) *Histogram {
	h := &Histogram{name: name, labels: labels, help: help}
	register(name, labels, h)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := sort.SearchFloat64s(durationBuckets[:], secs)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(uint64(d))
}

// Count returns how many observations the histogram has recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) family() (string, string, string) { return h.name, h.help, "histogram" }

// collect emits the cumulative _bucket series plus _sum and _count, per the
// Prometheus histogram convention.
func (h *Histogram) collect(dst []Sample) []Sample {
	var cum uint64
	for i, le := range durationBuckets {
		cum += h.buckets[i].Load()
		dst = append(dst, Sample{h.bucketName(fmt.Sprintf("%g", le)), float64(cum)})
	}
	cum += h.buckets[len(durationBuckets)].Load()
	dst = append(dst, Sample{h.bucketName("+Inf"), float64(cum)})
	dst = append(dst, Sample{seriesName(h.name+"_sum", h.labels), float64(h.sumNanos.Load()) / 1e9})
	dst = append(dst, Sample{seriesName(h.name+"_count", h.labels), float64(h.count.Load())})
	return dst
}

// bucketName renders one _bucket series name with the le label appended to
// the static label set.
func (h *Histogram) bucketName(le string) string {
	var b strings.Builder
	b.WriteString(h.name)
	b.WriteString("_bucket{")
	if h.labels != "" {
		b.WriteString(h.labels)
		b.WriteString(",")
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

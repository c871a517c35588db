package featgraph

import (
	"io"

	"featgraph/internal/telemetry"
)

// Observability surface. The execution stack is instrumented with
// zero-dependency counters, gauges and histograms (kernel run latency,
// edges processed, dgl kernel traffic, GPU→CPU fallbacks, work-stealing
// imbalance, recovered panics) and a ring-buffer trace recorder of per-run
// span events. Both are off by default and cost a few atomic loads per run
// while disabled; see README.md's Observability section.

// Metric is one observed telemetry series: a fully-labeled series name in
// Prometheus notation and its current value.
type Metric = telemetry.Sample

// SetMetricsEnabled switches process-wide metrics recording on or off.
// Individual kernels can opt in regardless via Options.Metrics.
func SetMetricsEnabled(on bool) { telemetry.SetEnabled(on) }

// MetricsEnabled reports whether process-wide metrics recording is on.
func MetricsEnabled() bool { return telemetry.Enabled() }

// Metrics returns a snapshot of every registered telemetry series, sorted
// by name. Series exist from process start; their values only move while
// recording is enabled.
func Metrics() []Metric { return telemetry.Snapshot() }

// WriteMetrics writes the current metrics snapshot to w in Prometheus text
// exposition format.
func WriteMetrics(w io.Writer) error { return telemetry.WritePrometheus(w) }

// StartTrace begins recording kernel span events (build, lower, partition,
// launch, phase execution, fallbacks) into a ring buffer holding the most
// recent capacity events. Tracing is independent of the metrics switch.
func StartTrace(capacity int) { telemetry.StartTrace(capacity) }

// StopTrace stops recording and returns the number of events retained.
// Call it only after in-flight runs have finished.
func StopTrace() int { return telemetry.StopTrace() }

// WriteTrace writes the recorded events to w as Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Call after
// StopTrace.
func WriteTrace(w io.Writer) error { return telemetry.WriteTrace(w) }

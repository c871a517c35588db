package core

import (
	"featgraph/internal/admission"
	"featgraph/internal/telemetry"
)

// Kernel-level metrics, one set per template type. The target label on the
// run counters is the kernel's *requested* target; a GPU-target run that
// degraded to the CPU path still counts under target="gpu", with the
// degradation tracked separately by the fallback counters (stage="build"
// for kernels whose device build failed, stage="run" for per-run device
// failures retried on CPU).
type kernelMetrics struct {
	runsCPU     *telemetry.Counter
	runsGPU     *telemetry.Counter
	latency     *telemetry.Histogram
	edges       *telemetry.Counter
	stolen      *telemetry.Counter
	fallbackRun *telemetry.Counter
	fallbackBld *telemetry.Counter
	fallbackBrk *telemetry.Counter
	brkToOpen   *telemetry.Counter
	brkToHalf   *telemetry.Counter
	brkToClosed *telemetry.Counter
	brkOpen     *telemetry.Gauge
}

func newKernelMetrics(kernel string) *kernelMetrics {
	return &kernelMetrics{
		runsCPU: telemetry.NewCounter("featgraph_kernel_runs_total",
			`kernel="`+kernel+`",target="cpu"`, "Kernel executions by template and requested target."),
		runsGPU: telemetry.NewCounter("featgraph_kernel_runs_total",
			`kernel="`+kernel+`",target="gpu"`, "Kernel executions by template and requested target."),
		latency: telemetry.NewDurationHistogram("featgraph_kernel_run_seconds",
			`kernel="`+kernel+`"`, "Wall-clock kernel run latency."),
		edges: telemetry.NewCounter("featgraph_kernel_edges_processed_total",
			`kernel="`+kernel+`"`, "Edge traversals performed by kernel runs (each feature tile re-traverses the topology)."),
		stolen: telemetry.NewCounter("featgraph_kernel_chunks_stolen_total",
			`kernel="`+kernel+`"`, "Engine chunks executed by pool helpers rather than the submitting goroutine (work-stealing imbalance signal)."),
		fallbackRun: telemetry.NewCounter("featgraph_kernel_fallbacks_total",
			`kernel="`+kernel+`",stage="run"`, "Runs degraded from GPU to CPU, by failure stage."),
		fallbackBld: telemetry.NewCounter("featgraph_kernel_fallbacks_total",
			`kernel="`+kernel+`",stage="build"`, "Runs degraded from GPU to CPU, by failure stage."),
		fallbackBrk: telemetry.NewCounter("featgraph_kernel_fallbacks_total",
			`kernel="`+kernel+`",stage="breaker"`, "Runs degraded from GPU to CPU, by failure stage."),
		brkToOpen: telemetry.NewCounter("featgraph_breaker_transitions_total",
			`kernel="`+kernel+`",to="open"`, "GPU circuit breaker state transitions by destination state."),
		brkToHalf: telemetry.NewCounter("featgraph_breaker_transitions_total",
			`kernel="`+kernel+`",to="half-open"`, "GPU circuit breaker state transitions by destination state."),
		brkToClosed: telemetry.NewCounter("featgraph_breaker_transitions_total",
			`kernel="`+kernel+`",to="closed"`, "GPU circuit breaker state transitions by destination state."),
		brkOpen: telemetry.NewGauge("featgraph_breaker_open",
			`kernel="`+kernel+`"`, "1 while the kernel's GPU circuit breaker is open, else 0."),
	}
}

var (
	spmmMetrics      = newKernelMetrics("spmm")
	sddmmMetrics     = newKernelMetrics("sddmm")
	fusedattnMetrics = newKernelMetrics("fusedattn")

	// mSpMMRows counts aggregated output rows; SDDMM has no row
	// aggregation (its unit of work is the edge), so the series exists for
	// SpMM only.
	mSpMMRows = telemetry.NewCounter("featgraph_kernel_rows_processed_total",
		`kernel="spmm"`, "Destination rows aggregated by SpMM runs (rows x feature tiles).")

	// mRecoveredPanics counts worker panics the engine recovered into
	// *KernelError (CPU paths; simulated-GPU panics surface as launch
	// failures, see featgraph_cudasim_launch_failures_total).
	mRecoveredPanics = telemetry.NewCounter("featgraph_recovered_panics_total", "",
		"Worker panics recovered into KernelError on the CPU execution paths.")

	// mNumericFailures counts Options.CheckNumerics scans that found
	// NaN/Inf in a kernel's output.
	mNumericFailures = telemetry.NewCounter("featgraph_numeric_check_failures_total", "",
		"CheckNumerics scans that failed with a NumericError.")
)

// record folds one completed run into the template's metric set. Called
// only when recording is on for the kernel (Options.Metrics or the global
// telemetry switch).
func (m *kernelMetrics) record(target Target, stats *RunStats) {
	if target == GPU {
		m.runsGPU.Inc()
	} else {
		m.runsCPU.Inc()
	}
	m.latency.Observe(stats.Duration)
	m.edges.Add(stats.EdgesProcessed)
	m.stolen.Add(stats.ChunksStolen)
}

// recordFallback counts one degraded run by failure stage.
func (m *kernelMetrics) recordFallback(buildStage bool) {
	if buildStage {
		m.fallbackBld.Inc()
	} else {
		m.fallbackRun.Inc()
	}
}

// recordBreakerReroute counts a run routed straight to CPU because the
// kernel's circuit breaker was open.
func (m *kernelMetrics) recordBreakerReroute() { m.fallbackBrk.Inc() }

// breakerHook returns the admission.Breaker onChange callback that mirrors
// the breaker's state into telemetry. Transitions are rare (threshold
// failures, cooldown probes) so the counters are recorded unconditionally
// rather than gated on telemetry.Enabled at transition time.
func (m *kernelMetrics) breakerHook() func(admission.BreakerState) {
	return func(s admission.BreakerState) {
		switch s {
		case admission.BreakerOpen:
			m.brkToOpen.Inc()
			m.brkOpen.Set(1)
		case admission.BreakerHalfOpen:
			m.brkToHalf.Inc()
			m.brkOpen.Set(0)
		default:
			m.brkToClosed.Inc()
			m.brkOpen.Set(0)
		}
	}
}

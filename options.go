package featgraph

import "time"

// Option is a functional setting for kernel construction. NewOptions
// composes them into the Options struct the builders take, so call sites
// name only the parameters they care about:
//
//	opts := featgraph.NewOptions(
//	        featgraph.WithTarget(featgraph.CPU),
//	        featgraph.WithGraphPartitions(16))
//	k, _ := featgraph.SpMM(g, udf, inputs, featgraph.AggSum, fds, opts)
//
// The Options struct remains the canonical representation; Option values
// are just constructors for it.
type Option func(*Options)

// NewOptions builds an Options value from functional settings. Zero
// settings yield the zero Options: single-threaded CPU, no partitioning.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTarget selects CPU or simulated-GPU execution.
func WithTarget(t Target) Option { return func(o *Options) { o.Target = t } }

// WithNumThreads sets the CPU worker count; 0 or 1 means single-threaded.
func WithNumThreads(n int) Option { return func(o *Options) { o.NumThreads = n } }

// WithGraphPartitions sets the number of 1D source-vertex partitions on
// CPU; 0 or 1 disables graph partitioning.
func WithGraphPartitions(n int) Option { return func(o *Options) { o.GraphPartitions = n } }

// WithHilbert enables Hilbert-curve edge traversal for CPU SDDMM.
func WithHilbert() Option { return func(o *Options) { o.Hilbert = true } }

// WithDevice sets the simulated GPU device for Target == GPU.
func WithDevice(d *Device) Option { return func(o *Options) { o.Device = d } }

// WithLaunchDims sets the CUDA grid and block sizes; 0 derives either from
// the workload.
func WithLaunchDims(blocks, threadsPerBlock int) Option {
	return func(o *Options) { o.NumBlocks = blocks; o.ThreadsPerBlock = threadsPerBlock }
}

// WithHybridThreshold enables hybrid degree partitioning on GPU: source
// vertices with out-degree >= threshold are staged through shared memory.
func WithHybridThreshold(threshold int32) Option {
	return func(o *Options) { o.HybridThreshold = threshold }
}

// WithCheckNumerics scans the output for NaN/±Inf after every successful
// run, failing it with a *NumericError.
func WithCheckNumerics() Option { return func(o *Options) { o.CheckNumerics = true } }

// WithMetrics enables telemetry recording for this kernel's runs even when
// the process-wide switch (SetMetricsEnabled) is off.
func WithMetrics() Option { return func(o *Options) { o.Metrics = true } }

// WithNoFallback disables the transparent CPU retry a GPU-target kernel
// performs when the device build or run fails.
func WithNoFallback() Option { return func(o *Options) { o.NoFallback = true } }

// WithAdmission routes the kernel's runs through g instead of the
// process-default governor (SetDefaultGovernor / admission.Default). The
// governor bounds concurrent runs and queued memory, sheds load with
// ErrOverloaded, rejects runs whose deadline cannot be met, and — when its
// config sets StallThreshold — watches runs for progress stalls.
func WithAdmission(g *Governor) Option { return func(o *Options) { o.Admission = g } }

// WithDeadline bounds every run of the kernel: a run still executing (or
// still queued) when d elapses is cancelled with a deadline error. The
// caller's context deadline, when sooner, still wins.
func WithDeadline(d time.Duration) Option { return func(o *Options) { o.Deadline = d } }

// WithRetry allows up to n extra attempts per run for retryable failures
// (watchdog stalls, recovered worker panics, numeric faults), with
// jittered exponential backoff between attempts.
func WithRetry(n int) Option { return func(o *Options) { o.Retries = n } }

// WithBreaker tunes the GPU circuit breaker: the breaker opens after
// threshold consecutive device failures and stays open for cooldown before
// probing. threshold 0 keeps the defaults; a negative threshold disables
// the breaker entirely (every run attempts the device).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(o *Options) { o.BreakerThreshold = threshold; o.BreakerCooldown = cooldown }
}

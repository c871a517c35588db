// The governed run: the one serving policy every built kernel executes
// under. SpMMKernel, SDDMMKernel, FusedAttnKernel, FusedAttnBwdKernel and
// ShardedSpMM all embed a governed value and their RunCtx is
// governed.run, so this header is the one description of what a run
// goes through; the kernels differ only in the two bodies it calls back
// into (the backend interface).
//
//	shape check -> ctx.Err -> Options.Deadline -> admit -> attempt loop -> release
//
// Every run first passes the admission governor (Options.Admission, else
// the process default): it may queue, be shed with an error matching
// admission.ErrOverloaded, or be rejected because its deadline
// (Options.Deadline or ctx's) cannot be met. Each attempt then runs the
// device path behind the kernel's circuit breaker, or the CPU engine:
//
//   - Cancelling the context stops the worker pool promptly and returns
//     ctx.Err(); the contents of out are then undefined.
//   - A panic inside a worker (a UDF evaluation fault, a shape mismatch, an
//     injected fault) is recovered and returned as a *KernelError instead
//     of crashing the process.
//   - A GPU-target kernel whose device run fails retries once on the CPU
//     path and records the fallback in the returned stats, unless
//     Options.NoFallback is set; a cancellation is not a device verdict and
//     never falls back. Consecutive device failures open the breaker, which
//     routes runs straight to CPU until a half-open probe succeeds.
//   - Under a watchdog-enabled governor, a run whose workers stop making
//     progress is cancelled with an *admission.StallError.
//   - With Options.CheckNumerics, a successful run additionally scans out
//     and fails with a *NumericError on the first NaN/±Inf.
//
// Retryable failures (stall, panic, numeric) are retried up to
// Options.Retries times with jittered backoff. A completed run stamps its
// duration, publishes LastStats, and records the kernel's metrics and its
// "<name>.run" trace span. The path allocates nothing: no closures, no
// per-run heap state.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// backend is what the governed run calls back into: one attempt on the
// simulated device and one on the CPU engine. runGPU is reached only after
// armGPU.
type backend interface {
	runGPU(ctx context.Context, out *tensor.Tensor) (RunStats, error)
	runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error)
}

// governed is the serving state of one built kernel.
type governed struct {
	name         string // kernel name in numeric errors and trace spans
	label        string // kernel name as the output-shape error spells it
	runSpan      string
	fallbackSpan string
	metrics      *kernelMetrics
	opts         Options

	outRows, outLen int
	// memEstimate is the run's working-set estimate in bytes, computed from
	// plan shapes at build time and charged against the governor's budget.
	memEstimate int64
	// rowsPerRun is the SpMM row-aggregation count of one run (rows x
	// feature tiles); zero for kernels that aggregate no rows.
	rowsPerRun uint64

	// hasGPU reports a built device path; gpuBuildErr is the device build
	// failure behind a GPU-target kernel without one.
	hasGPU      bool
	gpuBuildErr string
	// breaker quarantines the device path after consecutive run failures
	// (see admission.Breaker); nil for CPU kernels and when disabled.
	breaker *admission.Breaker

	lastMu sync.Mutex
	last   RunStats
}

func (g *governed) init(name, label string, m *kernelMetrics, opts Options, outRows, outLen int) {
	g.name, g.label = name, label
	g.runSpan, g.fallbackSpan = name+".run", name+".fallback"
	g.metrics, g.opts = m, opts
	g.outRows, g.outLen = outRows, outLen
}

// armGPU marks the device path built and puts it behind the breaker.
func (g *governed) armGPU() {
	g.hasGPU = true
	if g.opts.BreakerThreshold >= 0 {
		g.breaker = admission.NewBreaker(g.opts.BreakerThreshold, g.opts.BreakerCooldown, g.metrics.breakerHook())
	}
}

// LastStats returns the statistics of the most recently completed RunCtx.
func (g *governed) LastStats() RunStats {
	g.lastMu.Lock()
	defer g.lastMu.Unlock()
	return g.last
}

// run executes k into out under ctx and the serving policy described in
// the file header.
func (g *governed) run(ctx context.Context, k backend, out *tensor.Tensor) (RunStats, error) {
	if out.Dim(0) != g.outRows || out.Len() != g.outRows*g.outLen {
		return RunStats{}, fmt.Errorf("core: %s output shape %v, want [%d, %d]", g.label, out.Shape(), g.outRows, g.outLen)
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	gov := admission.Resolve(g.opts.Admission)
	if g.opts.Deadline > 0 {
		dctx, cancel := context.WithTimeout(ctx, g.opts.Deadline)
		defer cancel()
		ctx = dctx
	}
	tk, err := gov.Admit(ctx, g.memEstimate)
	if err != nil {
		return RunStats{}, err
	}
	var stats RunStats
	for attempt := 0; ; attempt++ {
		stats, err = g.attempt(ctx, k, out, tk.Queued(), attempt)
		if err == nil || attempt >= g.opts.Retries || !retryable(err) || ctx.Err() != nil {
			break
		}
		admission.RecordRetry()
		if !admission.SleepBackoff(ctx, attempt) {
			break
		}
	}
	gov.Release(tk)
	return stats, err
}

// attempt is one execution attempt: the GPU path behind the circuit breaker
// with CPU fallback, or the CPU engine, plus numeric checking and stats
// publication.
func (g *governed) attempt(ctx context.Context, k backend, out *tensor.Tensor, queued time.Duration, attempt int) (RunStats, error) {
	metricsOn := g.opts.Metrics || telemetry.Enabled()
	tracing := telemetry.TraceActive()
	start := time.Now()
	var stats RunStats
	var err error
	if g.hasGPU && g.breaker.Allow() {
		if stats, err = k.runGPU(ctx, out); err == nil {
			g.breaker.RecordSuccess()
		} else {
			if ctxDone(ctx, err) {
				// Cancellation is not a device verdict; release any
				// half-open probe without recording one.
				g.breaker.RecordCancel()
				return RunStats{}, err
			}
			g.breaker.RecordFailure()
			if g.opts.NoFallback {
				return RunStats{}, err
			}
			// Graceful degradation: one retry on the CPU path.
			reason := err.Error()
			if stats, err = k.runCPU(ctx, out); err != nil {
				return RunStats{}, fmt.Errorf("core: gpu run failed (%s); cpu fallback failed: %w", reason, err)
			}
			stats.Fallback = true
			stats.FallbackReason = reason
			if metricsOn {
				g.metrics.recordFallback(false)
			}
			if tracing {
				telemetry.RecordInstant(g.fallbackSpan, 0, "run_stage", 1, 1)
			}
		}
	} else {
		if stats, err = k.runCPU(ctx, out); err != nil {
			return RunStats{}, err
		}
		switch {
		case g.opts.Target != GPU:
		case !g.hasGPU:
			// The device build already degraded to the CPU path.
			stats.Fallback = true
			stats.FallbackReason = g.gpuBuildErr
			if metricsOn {
				g.metrics.recordFallback(true)
			}
			if tracing {
				telemetry.RecordInstant(g.fallbackSpan, 0, "build_stage", 1, 1)
			}
		default:
			// The circuit breaker is open: routed straight to CPU without
			// paying for a doomed device attempt.
			stats.Fallback = true
			stats.FallbackReason = "gpu circuit breaker open"
			if metricsOn {
				g.metrics.recordBreakerReroute()
			}
			if tracing {
				telemetry.RecordInstant(g.fallbackSpan, 0, "breaker_open", 1, 1)
			}
		}
	}
	stats.Queued, stats.Retries = queued, attempt
	if g.breaker != nil {
		stats.BreakerState = g.breaker.State().String()
	}
	if g.opts.CheckNumerics {
		if err := checkNumerics(g.name, out); err != nil {
			return stats, err
		}
	}
	stats.Duration = time.Since(start)
	g.lastMu.Lock()
	g.last = stats
	g.lastMu.Unlock()
	if metricsOn {
		if g.rowsPerRun > 0 {
			mSpMMRows.Add(g.rowsPerRun)
		}
		g.metrics.record(g.opts.Target, &stats)
	}
	if tracing {
		telemetry.RecordSpan(g.runSpan, 0, start, stats.Duration,
			"edges", int64(stats.EdgesProcessed), "chunks_stolen", int64(stats.ChunksStolen), 2)
	}
	return stats, nil
}

// retryable reports whether a failed attempt is worth retrying: watchdog
// stalls, recovered worker panics, and numeric faults are transient (or
// injected); context cancellation, deadline expiry, and admission
// rejections are not.
func retryable(err error) bool {
	var se *admission.StallError
	var ke *KernelError
	var ne *NumericError
	return errors.As(err, &se) || errors.As(err, &ke) || errors.As(err, &ne)
}

// ctxDone reports whether err is the run context's cancellation rather than
// a device or kernel failure — cancellations must not trigger CPU fallback.
func ctxDone(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// watch is an armed stall watchdog over one engine or device run; the zero
// value is a disabled one.
type watch struct {
	cancel context.CancelCauseFunc
	stop   func()
}

// startWatch puts ctx under gov's stall watchdog (when it has one), scanning
// beacon and naming site in the *admission.StallError. The caller defers
// end and passes the returned context to stallCause.
func startWatch(ctx context.Context, gov *admission.Governor, beacon *admission.Beacon, site string) (context.Context, watch) {
	gov = admission.Resolve(gov)
	if !gov.WatchdogEnabled() {
		return ctx, watch{}
	}
	wctx, cancel := context.WithCancelCause(ctx)
	return wctx, watch{cancel: cancel, stop: gov.Watch(cancel, beacon, site)}
}

func (w watch) end() {
	if w.stop != nil {
		w.stop()
		w.cancel(nil)
	}
}

// stallCause substitutes the watchdog's *StallError for the bare
// context.Canceled a watchdog-cancelled run surfaces as. ctx must be the
// watchdog-wrapped context. Errors with their own identity (worker
// failures, panics) pass through untouched, as does a cancellation that
// originated from the caller rather than the watchdog.
func stallCause(ctx context.Context, err error) error {
	if err == nil || !errors.Is(err, context.Canceled) {
		return err
	}
	var se *admission.StallError
	if cause := context.Cause(ctx); errors.As(cause, &se) {
		return se
	}
	return err
}

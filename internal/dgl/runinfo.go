package dgl

import (
	"time"

	"featgraph/internal/core"
)

// RunInfo accumulates execution statistics for one logical call — a single
// ApplyCtx, or a whole forward/backward pass when the same *RunInfo is
// threaded through every op of a tape. It is owned by the caller, so
// concurrent requests sharing one Graph each observe their own runs with
// no shared mutable state: fallback attribution, queueing and retries
// travel per call instead of racing on graph fields. A nil *RunInfo
// collects nothing.
//
// A RunInfo must not be shared across goroutines without external
// synchronization; give each concurrent request its own.
type RunInfo struct {
	// Runs counts kernel launches observed.
	Runs int
	// SimCycles sums simulated GPU cycles (Target == GPU runs only).
	SimCycles uint64
	// Fallbacks counts runs that degraded from the simulated GPU to the
	// CPU path; FallbackReason keeps the most recent degradation's reason
	// verbatim, the same string a direct core kernel run reports.
	Fallbacks      int
	FallbackReason string
	// Queued sums time spent waiting in admission queues.
	Queued time.Duration
	// Retries sums per-run retry attempts consumed.
	Retries int
	// BreakerState is the GPU circuit breaker's state after the most
	// recent run ("" when the breaker never engaged).
	BreakerState string
}

// observe folds one kernel run's stats into the info; a nil info drops them.
func (ri *RunInfo) observe(stats core.RunStats) {
	if ri == nil {
		return
	}
	ri.Runs++
	ri.SimCycles += stats.SimCycles
	if stats.Fallback {
		ri.Fallbacks++
		ri.FallbackReason = stats.FallbackReason
	}
	ri.Queued += stats.Queued
	ri.Retries += stats.Retries
	if stats.BreakerState != "" {
		ri.BreakerState = stats.BreakerState
	}
}

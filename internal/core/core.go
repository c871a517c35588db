// Package core implements the paper's primary contribution: the generalized
// SpMM and SDDMM sparse templates that, fused with user-defined functions
// (UDFs) and feature dimension schedules (FDS), form FeatGraph's kernels.
//
// A kernel is built once per (graph, UDF, FDS, options) tuple — the analogue
// of the paper's per-topology compilation, whose cost is amortized over the
// hundreds of epochs of a training run — and then executed many times:
//
//	k, err := core.BuildSpMM(adj, udf, inputs, core.AggSum, fds, opts)
//	stats, err := k.Run(out)
//
// The templates own the coarse-grained graph traversal optimizations
// (§III-C): 1D graph partitioning and feature dimension tiling on CPU,
// row-per-block/feature-across-threads parallelization, tree reduction and
// hybrid degree partitioning on the simulated GPU, and Hilbert-curve edge
// traversal for edge-wise computations. The fine-grained UDF optimizations
// come from the FDS. Both fast-path (pattern-recognized) and generic
// (compiled-expression) lowerings produce identical results.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Target selects the execution backend.
type Target int

// Execution targets.
const (
	// CPU runs multi-threaded host code with cache-oriented partitioning.
	CPU Target = iota
	// GPU runs on the cudasim simulated device with CUDA-style scheduling.
	GPU
)

func (t Target) String() string {
	if t == CPU {
		return "cpu"
	}
	return "gpu"
}

// AggOp is the commutative aggregation applied across a vertex's incoming
// messages by the SpMM template.
type AggOp int

// Aggregation operators. Vertices with no in-edges aggregate to zero for
// every operator (DGL's convention).
const (
	AggSum AggOp = iota
	AggMax
	AggMin
	AggMean
)

func (a AggOp) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggMean:
		return "mean"
	}
	return fmt.Sprintf("AggOp(%d)", int(a))
}

// identity returns the aggregation identity element.
func (a AggOp) identity() float32 {
	switch a {
	case AggMax:
		return float32(math.Inf(-1))
	case AggMin:
		return float32(math.Inf(1))
	default:
		return 0
	}
}

// Options carries the coarse-grained scheduling parameters of the sparse
// templates — the template half of the design space the paper's grid
// search tunes (number of graph partitions, number of CUDA blocks, ...).
type Options struct {
	Target Target

	// NumThreads is the CPU worker count; 0 or 1 means single-threaded.
	// Threads work collectively on one graph partition at a time to avoid
	// LLC contention (§IV-A).
	NumThreads int
	// GraphPartitions is the number of 1D source-vertex partitions on
	// CPU; 0 or 1 disables graph partitioning.
	GraphPartitions int
	// Hilbert enables Hilbert-curve edge traversal for CPU SDDMM.
	Hilbert bool

	// Device is the simulated GPU; nil uses a process-wide default.
	Device *cudasim.Device
	// NumBlocks is the CUDA grid size; 0 derives it from the workload
	// (rows for SpMM, edge groups for SDDMM).
	NumBlocks int
	// ThreadsPerBlock is the CUDA block size; 0 derives it from the
	// feature tile length.
	ThreadsPerBlock int
	// HybridThreshold enables hybrid degree partitioning on GPU: source
	// vertices with out-degree >= the threshold are staged through shared
	// memory. 0 disables hybrid partitioning.
	HybridThreshold int32

	// CheckNumerics scans the output for NaN/±Inf after every successful
	// run and fails it with a *NumericError naming the first offending
	// vertex/edge and feature. The scan costs one pass over the output.
	CheckNumerics bool
	// Metrics enables telemetry recording for this kernel's runs even when
	// the process-wide switch (telemetry.SetEnabled) is off. RunStats
	// fields are populated either way; this only controls the shared
	// counters and histograms behind featgraph.Metrics().
	Metrics bool
	// NoFallback disables the transparent CPU retry a GPU-target kernel
	// performs when the device build or run fails.
	NoFallback bool

	// Admission is the serving governor this kernel's runs pass through;
	// nil uses the process-wide admission.Default(). The governor applies
	// concurrency/memory admission control, deadline-aware queueing, and
	// (when configured) the stall watchdog.
	Admission *admission.Governor
	// Deadline bounds each run end to end: RunCtx derives a per-run
	// deadline context, the governor rejects queued runs that cannot meet
	// it, and workers observe it like any cancellation. 0 means no
	// per-run deadline (the caller's ctx still applies).
	Deadline time.Duration
	// Retries is how many extra attempts a failed run gets on retryable
	// errors (stall, recovered worker panic, numeric fault), with jittered
	// exponential backoff between attempts. 0 disables retries.
	Retries int
	// BreakerThreshold tunes the GPU circuit breaker: the number of
	// consecutive device failures that open it. 0 uses
	// admission.DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker routes straight to CPU
	// before half-open probing; 0 uses admission.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// RunStats reports per-run execution statistics. SimCycles is nonzero only
// for GPU runs; see the cudasim package for the cost model.
type RunStats struct {
	SimCycles uint64

	// Duration is the wall-clock time of the run, populated on every
	// completed RunCtx regardless of telemetry settings.
	Duration time.Duration
	// EdgesProcessed counts edge traversals the run performed. Each
	// feature tile re-traverses the topology, so an untiled run reports
	// nnz and a T-tile run reports T x nnz. GPU runs report the nominal
	// traversal count of the launched grid.
	EdgesProcessed uint64
	// ChunksStolen counts engine chunks executed by pool helpers rather
	// than the submitting goroutine — the work-stealing imbalance signal.
	// Zero on the GPU path.
	ChunksStolen uint64

	// Fallback reports that the GPU target failed to build or run and the
	// result was produced by the CPU path instead (graceful degradation).
	Fallback bool
	// FallbackReason is the GPU failure that triggered the fallback.
	FallbackReason string

	// Queued is how long the run waited for admission before executing
	// (zero when admitted immediately).
	Queued time.Duration
	// Retries is how many failed attempts preceded this result; 0 means
	// the first attempt succeeded.
	Retries int
	// BreakerState is the GPU circuit breaker's state after the run
	// ("closed", "open", "half-open"); empty for kernels without a
	// breaker (CPU targets, or BreakerThreshold < 0).
	BreakerState string
}

var (
	defaultDeviceOnce sync.Once
	defaultDevice     *cudasim.Device
)

// device resolves the simulated device for a GPU kernel.
func (o *Options) device() *cudasim.Device {
	if o.Device != nil {
		return o.Device
	}
	defaultDeviceOnce.Do(func() {
		defaultDevice = cudasim.NewDevice(cudasim.Config{})
	})
	return defaultDevice
}

// validateBindings checks that every placeholder indexed by a special
// variable has a leading dimension compatible with the graph: Src indexes
// source vertices (adjacency columns), Dst destination vertices (rows),
// and EID edge ids (nnz). The dimensions are passed explicitly rather
// than as a CSR because sharded kernels validate against the global graph
// while executing a local shard.
func validateBindings(numRows, numCols int, nnz int64, udf *expr.UDF, inputs []*tensor.Tensor) error {
	var err error
	walkLoads(udf.Body, func(l *expr.Load) {
		if err != nil {
			return
		}
		sp, ok := l.Idx[0].(expr.Special)
		if !ok {
			return
		}
		dim0 := inputs[l.P.ID()].Dim(0)
		switch sp {
		case expr.Src:
			if dim0 != numCols {
				err = fmt.Errorf("core: %s indexed by src has %d rows, graph has %d source vertices", l.P.Name, dim0, numCols)
			}
		case expr.Dst:
			if dim0 != numRows {
				err = fmt.Errorf("core: %s indexed by dst has %d rows, graph has %d destination vertices", l.P.Name, dim0, numRows)
			}
		case expr.EID:
			if int64(dim0) < nnz {
				err = fmt.Errorf("core: %s indexed by eid has %d rows, graph has %d edges", l.P.Name, dim0, nnz)
			}
		}
	})
	return err
}

func walkLoads(e expr.Expr, f func(*expr.Load)) {
	switch n := e.(type) {
	case *expr.Load:
		f(n)
	case *expr.Unary:
		walkLoads(n.A, f)
	case *expr.Binary:
		walkLoads(n.A, f)
		walkLoads(n.B, f)
	case *expr.Reduce:
		walkLoads(n.Body, f)
	}
}

// runControl coordinates one kernel execution across its worker goroutines:
// cooperative cancellation (from the caller's context) and first-error-wins
// failure collection (from recovered worker panics). Once stopped — by
// cancellation or by a failing worker — the remaining workers observe stop()
// at their next poll, abandon their work, and drain; the workpool phase
// still waits for all of them, so no goroutine outlives the Run call. A
// runControl is resettable so pooled run states reuse one across executions
// without allocating.
type runControl struct {
	ctx     context.Context // nil only for the zero value before reset
	done    <-chan struct{} // ctx.Done(); may be nil
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
	// quit releases faultinject stalls in sibling workers once the run has
	// failed — a stalled worker would otherwise hold the whole run behind
	// the injected delay. Allocated per run only while faults are armed,
	// so the steady-state path stays allocation-free. Workers read the
	// field without mu, which is safe because it is only written by reset
	// (before workers start); fail closes it but never reassigns it, with
	// quitClosed (under mu) guarding the close-once.
	quit       chan struct{}
	quitClosed bool
}

// reset rearms rc for a new execution under ctx. It must not be called
// while workers of a previous execution are still running.
func (rc *runControl) reset(ctx context.Context) {
	rc.ctx = ctx
	rc.done = ctx.Done()
	rc.stopped.Store(false)
	rc.quit = nil
	if faultinject.Enabled() {
		rc.quit = make(chan struct{})
	}
	rc.mu.Lock()
	rc.err = nil
	rc.quitClosed = false
	rc.mu.Unlock()
}

// stop reports whether workers should abandon their remaining work, either
// because the context was cancelled or because another worker failed. The
// fast path is one atomic load, so per-chunk polling is affordable.
func (rc *runControl) stop() bool {
	if rc.stopped.Load() {
		return true
	}
	if rc.done != nil {
		select {
		case <-rc.done:
			rc.stopped.Store(true)
			return true
		default:
		}
	}
	return false
}

// fail records err and stops the run; the first recorded error wins and
// releases any sibling worker stalled at a faultinject site.
func (rc *runControl) fail(err error) {
	if err == nil {
		return
	}
	rc.mu.Lock()
	if rc.err == nil {
		rc.err = err
	}
	if rc.quit != nil && !rc.quitClosed {
		close(rc.quit)
		rc.quitClosed = true
	}
	rc.mu.Unlock()
	rc.stopped.Store(true)
}

// verdict returns the run's outcome: a recorded worker error first, the
// context's error second, nil for a clean run. On any non-nil verdict the
// output buffer's contents are undefined.
func (rc *runControl) verdict() error {
	rc.mu.Lock()
	err := rc.err
	rc.mu.Unlock()
	if err != nil {
		return err
	}
	return rc.ctx.Err()
}

// workerSite locates an engine phase in the kernel schedule for
// KernelError reporting. Tile/part are -1 outside tile/partition loops.
type workerSite struct {
	kernel string
	target Target
	tile   int
	part   int
}

// cancelChunk is how many rows or edges a worker processes between
// cancellation polls: small enough to stop promptly, large enough to keep
// the poll off the inner loops.
const cancelChunk = 64

// aggInto folds msg into acc elementwise with op. Mean accumulates like sum
// and is normalized at the end of the run.
func aggInto(op AggOp, acc, msg []float32) {
	switch op {
	case AggSum, AggMean:
		for i := range acc {
			acc[i] += msg[i]
		}
	case AggMax:
		for i := range acc {
			if msg[i] > acc[i] {
				acc[i] = msg[i]
			}
		}
	case AggMin:
		for i := range acc {
			if msg[i] < acc[i] {
				acc[i] = msg[i]
			}
		}
	}
}

// finalizeAgg fixes up aggregate rows after all edges are processed:
// isolated vertices become zero for every operator, and mean divides by
// the in-degree.
func finalizeAgg(op AggOp, out *tensor.Tensor, adj *sparse.CSR, lo, hi int) {
	for r := lo; r < hi; r++ {
		deg := adj.RowPtr[r+1] - adj.RowPtr[r]
		row := out.Row(r)
		if deg == 0 {
			clear(row)
			continue
		}
		if op == AggMean {
			inv := 1 / float32(deg)
			for i := range row {
				row[i] *= inv
			}
		}
	}
}

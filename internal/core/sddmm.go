package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// SDDMMKernel is a built generalized-SDDMM kernel: the paper's
// featgraph.sddmm(A, edgefunc, target, fds). It computes a new feature for
// every edge — out[e] = edgefunc(src, dst, e) — producing an |E|×outLen
// tensor indexed by global edge id.
type SDDMMKernel struct {
	adj    *sparse.CSR
	opts   Options
	outLen int

	// Sharded execution (see sharded.go): a partial kernel computes one
	// shard's edges of a larger graph directly into the full global output
	// (SDDMM output is indexed by global edge id, which shard CSRs carry),
	// so outRows is the global edge count and the executor owns the
	// one-time output zeroing. dstBase maps local destination rows onto
	// global rows for Dst-indexed inputs.
	outRows int
	dstBase int
	partial bool

	compiled *codegen.CompiledUDF
	match    codegen.Match

	edges    *partition.HilbertEdges // traversal order (Hilbert or row-major)
	tiles    []partition.Range       // output-axis tiles
	redTiles []partition.Range       // reduce-axis tiles (dot fast path only)
	redAxis  *expr.Axis              // the dot pattern's reduction axis

	// Engine state (see engine.go): uniform edge chunks over the traversal
	// order and the run-state freelist.
	edgeChunks []partition.Range
	states     chan *sddmmRunState

	gpu *sddmmGPU
	// breaker is the GPU circuit breaker (nil for CPU-target kernels or
	// when Options.BreakerThreshold is negative); see RunCtx.
	breaker *admission.Breaker
	// memEstimate is the run's resident-memory estimate charged against
	// the admission governor's budget.
	memEstimate int64

	// LastStats storage (see kernel.go).
	lastMu sync.Mutex
	last   RunStats
}

// BuildSDDMM builds a generalized SDDMM kernel. fds may be nil.
func BuildSDDMM(adj *sparse.CSR, udf *expr.UDF, inputs []*tensor.Tensor, fds *schedule.FDS, opts Options) (*SDDMMKernel, error) {
	return buildSDDMM(adj, udf, inputs, fds, opts, nil)
}

// buildSDDMM is BuildSDDMM plus the sharded-execution hook: a non-nil sh
// builds a partial kernel over one shard of a larger graph (CPU only),
// validating inputs against the global dimensions and sizing the output
// for the global edge count.
func buildSDDMM(adj *sparse.CSR, udf *expr.UDF, inputs []*tensor.Tensor, fds *schedule.FDS, opts Options, sh *shardSpec) (*SDDMMKernel, error) {
	tracing := telemetry.TraceActive()
	var buildStart, stepStart time.Time
	if tracing {
		buildStart = time.Now()
	}
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid adjacency: %w", err)
	}
	if len(udf.OutAxes) == 0 {
		return nil, fmt.Errorf("core: UDF must have at least one output axis")
	}
	if err := fds.Validate(udf); err != nil {
		return nil, err
	}
	bindRows, bindCols, bindNNZ := adj.NumRows, adj.NumCols, int64(adj.NNZ())
	if sh != nil {
		if opts.Target != CPU {
			return nil, fmt.Errorf("core: sharded kernels run on CPU only")
		}
		bindRows, bindCols, bindNNZ = sh.globalRows, sh.globalCols, sh.globalNNZ
	}
	if err := validateBindings(bindRows, bindCols, bindNNZ, udf, inputs); err != nil {
		return nil, err
	}
	if tracing {
		stepStart = time.Now()
	}
	compiled, err := codegen.Compile(udf, inputs)
	if err != nil {
		return nil, err
	}
	if tracing {
		telemetry.RecordSpan("sddmm.lower", 0, stepStart, time.Since(stepStart), "out_len", int64(compiled.OutLen()), "", 0, 1)
	}
	k := &SDDMMKernel{
		adj:      adj,
		opts:     opts,
		outLen:   compiled.OutLen(),
		outRows:  adj.NNZ(),
		compiled: compiled,
		match:    codegen.Recognize(udf, inputs),
	}
	if sh != nil {
		k.outRows = int(sh.globalNNZ)
		k.dstBase, k.partial = sh.dstBase, true
	}
	k.tiles = partition.FeatureTiles(k.outLen, fds.SplitFactor(udf.OutAxes[0]))

	// Reduce-axis tiling applies to the dot fast path: processing k in
	// tiles keeps both operands' working sets cache-resident (Figure 8's
	// reduce-axis split).
	k.redAxis = findReduceAxis(udf.Body)
	d := 0
	if k.redAxis != nil {
		d = k.redAxis.Extent
	}
	if k.match.Pattern == codegen.DotSrcDst && d > 0 {
		k.redTiles = partition.FeatureTiles(d, fds.SplitFactor(k.redAxis))
	}

	if tracing {
		stepStart = time.Now()
	}
	switch opts.Target {
	case CPU:
		if opts.Hilbert {
			k.edges = partition.Hilbert(adj)
		} else {
			k.edges = partition.RowMajorEdges(adj)
		}
	case GPU:
		k.edges = partition.RowMajorEdges(adj)
		k.gpu = buildSDDMMGPU(k, udf, fds)
		if opts.BreakerThreshold >= 0 {
			k.breaker = admission.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, sddmmMetrics.breakerHook())
		}
	default:
		return nil, fmt.Errorf("core: unknown target %d", opts.Target)
	}

	// Admission memory estimate: the per-edge output surface in float32
	// bytes dominates SDDMM's resident cost.
	k.memEstimate = 4 * int64(adj.NNZ()) * int64(k.outLen)

	// Engine schedule: SDDMM phases have uniform per-edge cost, so chunks
	// split the traversal order evenly; balance comes from the pool's
	// dynamic dequeue.
	nnz := adj.NNZ()
	k.edgeChunks = uniformChunks(nnz, numChunksFor(max(opts.NumThreads, 1), nnz, nnz))
	k.states = make(chan *sddmmRunState, runStatePoolCap)
	if tracing {
		telemetry.RecordSpan("sddmm.partition", 0, stepStart, time.Since(stepStart), "chunks", int64(len(k.edgeChunks)), "tiles", int64(len(k.tiles)), 2)
	}

	// Pre-create one run state (and GPU launch state) so scratch is
	// allocated at build time and the first Run is already allocation-free;
	// this also starts the shared worker pool before any run executes.
	k.states <- k.newRunState()
	if k.gpu != nil {
		k.gpu.states <- k.newGPULaunch()
	}
	if tracing {
		telemetry.RecordSpan("sddmm.build", 0, buildStart, time.Since(buildStart), "rows", int64(adj.NumRows), "nnz", int64(adj.NNZ()), 2)
	}
	return k, nil
}

// findReduceAxis returns the axis of the outermost Reduce node, or nil.
func findReduceAxis(e expr.Expr) *expr.Axis {
	switch n := e.(type) {
	case *expr.Reduce:
		return n.Axis
	case *expr.Unary:
		return findReduceAxis(n.A)
	case *expr.Binary:
		if a := findReduceAxis(n.A); a != nil {
			return a
		}
		return findReduceAxis(n.B)
	}
	return nil
}

// OutShape returns the required output tensor shape (the global edge
// count for a sharded partial kernel).
func (k *SDDMMKernel) OutShape() (rows, cols int) { return k.outRows, k.outLen }

// Pattern returns the recognized UDF pattern.
func (k *SDDMMKernel) Pattern() string { return k.match.Pattern.String() }

// Run executes the kernel into out, an [NNZ, outLen] tensor.
func (k *SDDMMKernel) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the kernel into out under ctx and the kernel's serving
// policy; see SpMMKernel.RunCtx for the governed execution semantics
// (admission, deadlines, circuit breaker, stall watchdog, retries) — the
// two templates behave identically.
func (k *SDDMMKernel) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	if out.Dim(0) != k.outRows || out.Len() != k.outRows*k.outLen {
		return RunStats{}, fmt.Errorf("core: SDDMM output shape %v, want [%d, %d]", out.Shape(), k.outRows, k.outLen)
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	gov := admission.Resolve(k.opts.Admission)
	if k.opts.Deadline > 0 {
		dctx, cancel := context.WithTimeout(ctx, k.opts.Deadline)
		defer cancel()
		ctx = dctx
	}
	tk, err := gov.Admit(ctx, k.memEstimate)
	if err != nil {
		return RunStats{}, err
	}
	stats, err := k.runAttempts(ctx, out, tk.Queued())
	gov.Release(tk)
	return stats, err
}

// runAttempts drives runAttempt under the kernel's retry policy.
func (k *SDDMMKernel) runAttempts(ctx context.Context, out *tensor.Tensor, queued time.Duration) (RunStats, error) {
	for attempt := 0; ; attempt++ {
		stats, err := k.runAttempt(ctx, out, queued, attempt)
		if err == nil || attempt >= k.opts.Retries || !retryable(err) || ctx.Err() != nil {
			return stats, err
		}
		admission.RecordRetry()
		if !admission.SleepBackoff(ctx, attempt) {
			return stats, err
		}
	}
}

// runAttempt is one execution attempt; see SpMMKernel.runAttempt.
func (k *SDDMMKernel) runAttempt(ctx context.Context, out *tensor.Tensor, queued time.Duration, attempt int) (RunStats, error) {
	metricsOn := k.opts.Metrics || telemetry.Enabled()
	tracing := telemetry.TraceActive()
	start := time.Now()
	stats := RunStats{Queued: queued, Retries: attempt}
	if k.opts.Target == GPU && k.breaker.Allow() {
		gstats, err := k.runGPU(ctx, out)
		if err == nil {
			k.breaker.RecordSuccess()
			gstats.Queued, gstats.Retries = queued, attempt
			stats = gstats
		} else {
			if ctxDone(ctx, err) {
				k.breaker.RecordCancel()
				return RunStats{}, err
			}
			k.breaker.RecordFailure()
			if k.opts.NoFallback {
				return RunStats{}, err
			}
			// Graceful degradation: one retry on the CPU path.
			stats = RunStats{Queued: queued, Retries: attempt}
			if cpuErr := k.runCPU(ctx, out, &stats); cpuErr != nil {
				return RunStats{}, fmt.Errorf("core: gpu run failed (%v); cpu fallback failed: %w", err, cpuErr)
			}
			stats.Fallback = true
			stats.FallbackReason = err.Error()
			if metricsOn {
				sddmmMetrics.recordFallback(false)
			}
			if tracing {
				telemetry.RecordInstant("sddmm.fallback", 0, "run_stage", 1, 1)
			}
		}
	} else {
		if err := k.runCPU(ctx, out, &stats); err != nil {
			return RunStats{}, err
		}
		if k.opts.Target == GPU {
			// The circuit breaker is open: routed straight to CPU without
			// paying for a doomed device attempt.
			stats.Fallback = true
			stats.FallbackReason = "gpu circuit breaker open"
			if metricsOn {
				sddmmMetrics.recordBreakerReroute()
			}
			if tracing {
				telemetry.RecordInstant("sddmm.fallback", 0, "breaker_open", 1, 1)
			}
		}
	}
	if k.breaker != nil {
		stats.BreakerState = k.breaker.State().String()
	}
	if k.opts.CheckNumerics {
		if err := checkNumerics("sddmm", out); err != nil {
			return stats, err
		}
	}
	finishRun("sddmm.run", sddmmMetrics, k.opts.Target, &k.lastMu, &k.last, start, &stats, metricsOn, tracing)
	return stats, nil
}

// runCPU executes the multi-threaded CPU schedule, splitting the traversal
// order (Hilbert or row-major) across workers. The persistent engine
// (engine.go) dispatches edges as chunks on the shared worker pool with
// zero per-run allocation; Options.LegacySched selects the pre-engine
// per-run-goroutine scheduler instead.
func (k *SDDMMKernel) runCPU(ctx context.Context, out *tensor.Tensor, stats *RunStats) error {
	if k.opts.LegacySched {
		err := k.runCPULegacy(ctx, out)
		if err == nil {
			// The legacy scheduler has no chunk accounting; report the
			// nominal traversal count (every tile revisits every edge).
			tiles := len(k.tiles)
			if k.match.Pattern == codegen.DotSrcDst && len(k.redTiles) > 0 {
				tiles = len(k.redTiles)
			}
			stats.EdgesProcessed = uint64(k.adj.NNZ()) * uint64(tiles)
		}
		return err
	}
	return k.runCPUEngine(ctx, out, stats)
}

// runCPULegacy is the pre-engine scheduler, kept as the measured ablation
// baseline for the engine.
func (k *SDDMMKernel) runCPULegacy(ctx context.Context, out *tensor.Tensor) error {
	rc := newRunControl(ctx)
	threads := max(k.opts.NumThreads, 1)
	dot := k.match.Pattern == codegen.DotSrcDst
	tiles := k.tiles
	if dot {
		tiles = k.redTiles
	}
	for ti, tile := range tiles {
		if rc.stop() {
			break
		}
		site := workerSite{kernel: "sddmm", target: CPU, tile: ti, part: -1}
		parallelFor(rc, site, k.adj.NNZ(), threads, func(_, elo, ehi int) {
			var env *codegen.Env
			if !dot {
				env = k.compiled.NewEnv()
			}
			k.cpuEdges(rc, env, out, elo, ehi, tile, dot, ti > 0)
		})
	}
	return rc.verdict()
}

// cpuEdges computes traversal positions [elo, ehi) of one phase, polling the
// run control every cancelChunk edges. It is the one body behind both the
// engine's chunks and the legacy scheduler's splits, so the two agree
// bitwise by construction. dot selects the dot fast path over reduce tile
// t (see dotEdges); otherwise the compiled UDF writes output columns t of
// each edge's row directly (no aggregation in SDDMM).
func (k *SDDMMKernel) cpuEdges(rc *runControl, env *codegen.Env, out *tensor.Tensor, elo, ehi int, t partition.Range, dot, acc bool) {
	faultinject.Hit(faultinject.SiteSDDMMCPUWorker, rc.done, rc.quit)
	ed := k.edges
	odata, ostride := out.Data(), out.RowStride()
	for clo := elo; clo < ehi; clo += cancelChunk {
		if rc.stop() {
			return
		}
		chi := min(clo+cancelChunk, ehi)
		if dot {
			k.dotEdges(odata, clo, chi, t, acc)
			continue
		}
		for i := clo; i < chi; i++ {
			eid := int(ed.EID[i])
			k.compiled.Eval(env, ed.Col[i], ed.Row[i]+int32(k.dstBase), ed.EID[i], odata[eid*ostride+t.Lo:eid*ostride+t.Hi], t.Lo, t.Hi)
		}
	}
	faultinject.CorruptFloats(faultinject.SiteSDDMMCPUOutput, odata[elo*ostride:ehi*ostride])
}

// dotEdges is the dot fast path over traversal positions [elo, ehi) and
// reduce-axis tile t. The first tile stores its partial dot product and
// later tiles accumulate onto it, so the output needs no zeroing pass and a
// single-tile schedule never reads it.
func (k *SDDMMKernel) dotEdges(odata []float32, elo, ehi int, t partition.Range, acc bool) {
	xd, xs := k.match.X.Data(), k.match.X.RowStride()
	yd, ys := k.match.Y.Data(), k.match.Y.RowStride()
	rows, eids := k.edges.Row[elo:ehi], k.edges.EID[elo:ehi]
	for i, c := range k.edges.Col[elo:ehi] {
		u, v := int(c)*xs, (int(rows[i])+k.dstBase)*ys
		s := dot8(xd[u+t.Lo:u+t.Hi], yd[v+t.Lo:v+t.Hi])
		if acc {
			s += odata[eids[i]]
		}
		odata[eids[i]] = s
	}
}

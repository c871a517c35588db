package core

import (
	"context"
	"fmt"
	"time"

	"featgraph/internal/codegen"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
	"featgraph/internal/vec"
)

// SDDMMKernel is a built generalized-SDDMM kernel: the paper's
// featgraph.sddmm(A, edgefunc, target, fds). It computes a new feature for
// every edge — out[e] = edgefunc(src, dst, e) — producing an |E|×outLen
// tensor indexed by global edge id.
type SDDMMKernel struct {
	governed
	adj *sparse.CSR

	// Sharded execution (see sharded.go): a partial kernel computes one
	// shard's edges of a larger graph directly into the full global output
	// (SDDMM output is indexed by global edge id, which shard CSRs carry),
	// so outRows is the global edge count and the executor owns the
	// one-time output zeroing. dstBase maps local destination rows onto
	// global rows for Dst-indexed inputs.
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
		compiled: compiled,
		match:    codegen.Recognize(udf, inputs),
	}
	k.init("sddmm", "SDDMM", sddmmMetrics, opts, adj.NNZ(), compiled.OutLen())
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
		k.armGPU()
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
// policy; see governed.go.
func (k *SDDMMKernel) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// cpuEdges computes traversal positions [elo, ehi) of one phase, polling the
// run control every cancelChunk edges. dot selects the dot fast path over
// reduce tile t (see dotEdges); otherwise the compiled UDF writes output
// columns t of each edge's row directly (no aggregation in SDDMM).
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
		s := vec.Dot(xd[u+t.Lo:u+t.Hi], yd[v+t.Lo:v+t.Hi])
		if acc {
			s += odata[eids[i]]
		}
		odata[eids[i]] = s
	}
}

package core

import (
	"context"
	"fmt"
	"time"

	"featgraph/internal/codegen"
	"featgraph/internal/expr"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// SpMMKernel is a built generalized-SpMM kernel: the paper's
// featgraph.spmm(A, msgfunc, aggregation, target, fds). Building performs
// the "compilation": FDS validation, UDF lowering, pattern recognition,
// graph partitioning, and scheduling-parameter resolution. Run executes it.
//
// A kernel may be Run concurrently only with distinct output tensors;
// concurrent executions draw separate run states from the engine's pool.
type SpMMKernel struct {
	governed
	adj *sparse.CSR
	agg AggOp

	// Sharded execution (see sharded.go): dstBase maps the shard's local
	// destination rows onto the global graph for Dst-indexed inputs, and
	// partial suppresses the output prefill and aggregate finalization —
	// the sharded executor owns both, because a shard boundary may split a
	// row whose aggregate this kernel only partially computes.
	dstBase int
	partial bool

	compiled *codegen.CompiledUDF
	match    codegen.Match

	tiles []partition.Range

	// Scratch sizing, hoisted to build time so runs allocate nothing.
	maxTile int // widest feature tile
	tmpLen  int // combined-feature length for the MLP fast path

	// CPU state, built for both targets: it is the kernel's own schedule on
	// CPU and the graceful-degradation retry path on GPU.
	parts []*sparse.CSR // 1D column partitions (length 1 when disabled)

	// Engine state (see engine.go, chunks.go): per-partition edge-balanced
	// row chunks, uniform finalization chunks, and the run-state freelist.
	chunks    [][]partition.Range
	finChunks []partition.Range
	states    chan *spmmRunState

	// GPU state (see spmm_gpu.go). nil for a GPU-target kernel whose device
	// build failed and degraded to the CPU path.
	gpu *spmmGPU
}

// BuildSpMM builds a generalized SpMM kernel over adjacency matrix adj.
// udf is the per-edge message function with inputs bound positionally;
// agg is the aggregation operator; fds may be nil for the unscheduled
// degradation the paper describes in §III-B.
func BuildSpMM(adj *sparse.CSR, udf *expr.UDF, inputs []*tensor.Tensor, agg AggOp, fds *schedule.FDS, opts Options) (*SpMMKernel, error) {
	return buildSpMM(adj, udf, inputs, agg, fds, opts, nil)
}

// buildSpMM is BuildSpMM plus the sharded-execution hook: a non-nil sh
// builds a partial kernel over one shard of a larger graph (CPU only),
// validating inputs against the global dimensions.
func buildSpMM(adj *sparse.CSR, udf *expr.UDF, inputs []*tensor.Tensor, agg AggOp, fds *schedule.FDS, opts Options, sh *shardSpec) (*SpMMKernel, error) {
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
		telemetry.RecordSpan("spmm.lower", 0, stepStart, time.Since(stepStart), "out_len", int64(compiled.OutLen()), "", 0, 1)
	}
	k := &SpMMKernel{
		adj:      adj,
		agg:      agg,
		compiled: compiled,
		match:    codegen.Recognize(udf, inputs),
	}
	k.init("spmm", "SpMM", spmmMetrics, opts, adj.NumRows, compiled.OutLen())
	if sh != nil {
		k.dstBase, k.partial = sh.dstBase, true
	}
	k.tiles = partition.FeatureTiles(k.outLen, fds.SplitFactor(udf.OutAxes[0]))
	for _, t := range k.tiles {
		k.maxTile = max(k.maxTile, t.Len())
	}
	if k.match.Pattern == codegen.MLPSrcDst {
		k.tmpLen = k.match.W.Dim(0)
	}
	k.rowsPerRun = uint64(adj.NumRows) * uint64(len(k.tiles))

	if opts.Target != CPU && opts.Target != GPU {
		return nil, fmt.Errorf("core: unknown target %d", opts.Target)
	}
	if tracing {
		stepStart = time.Now()
	}
	if opts.GraphPartitions > 1 {
		k.parts = partition.OneD(adj, opts.GraphPartitions).Parts
	} else {
		k.parts = []*sparse.CSR{adj}
	}

	// Engine schedule: edge-balanced row chunks per partition (computed
	// once, from the CSR prefix sums), uniform chunks for finalization, and
	// a freelist so steady-state runs are allocation-free.
	threads := max(opts.NumThreads, 1)
	k.chunks = make([][]partition.Range, len(k.parts))
	for i, p := range k.parts {
		k.chunks[i] = edgeBalancedChunks(p, numChunksFor(threads, p.NumRows, p.NNZ()))
	}
	k.finChunks = uniformChunks(adj.NumRows, numChunksFor(threads, adj.NumRows, adj.NumRows))
	k.states = make(chan *spmmRunState, runStatePoolCap)
	if tracing {
		telemetry.RecordSpan("spmm.partition", 0, stepStart, time.Since(stepStart), "parts", int64(len(k.parts)), "tiles", int64(len(k.tiles)), 2)
	}

	if opts.Target == GPU {
		k.gpu, err = buildSpMMGPU(k, udf, fds)
		if err != nil {
			if opts.NoFallback {
				return nil, err
			}
			// Graceful degradation: an unsupported device schedule (e.g. a
			// feature tile exceeding shared memory) falls back to the CPU
			// path; Run records the fallback in its stats.
			k.gpu = nil
			k.gpuBuildErr = err.Error()
		} else {
			k.armGPU()
		}
	}

	// Admission memory estimate: the output surface plus one run state's
	// per-slot scratch, in float32 bytes.
	k.memEstimate = 4 * (int64(adj.NumRows)*int64(k.outLen) +
		int64(scratchSlots(opts.NumThreads))*int64(k.maxTile+k.tmpLen))

	// Pre-create one run state (and GPU launch state) so scratch is
	// allocated at build time and the first Run is already allocation-free;
	// this also starts the shared worker pool before any run executes.
	k.states <- k.newRunState()
	if k.gpu != nil {
		k.gpu.states <- k.newGPULaunch()
	}
	if tracing {
		telemetry.RecordSpan("spmm.build", 0, buildStart, time.Since(buildStart), "rows", int64(adj.NumRows), "nnz", int64(adj.NNZ()), 2)
	}
	return k, nil
}

// OutShape returns the required output tensor shape.
func (k *SpMMKernel) OutShape() (rows, cols int) { return k.adj.NumRows, k.outLen }

// Pattern returns the recognized UDF pattern ("generic" when the compiled
// path is used).
func (k *SpMMKernel) Pattern() string { return k.match.Pattern.String() }

// Run executes the kernel into out, which must be a [NumRows, outLen]
// tensor (or any shape with matching leading dimension and total size).
func (k *SpMMKernel) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the kernel into out under ctx and the kernel's serving
// policy — admission, deadline, circuit breaker with CPU fallback, stall
// watchdog, numeric check, retries; see governed.go.
func (k *SpMMKernel) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// spmmScratch is per-worker evaluation state.
type spmmScratch struct {
	env *codegen.Env
	msg []float32 // message buffer (one feature tile)
	tmp []float32 // x_src + x_dst buffer for the MLP fast path
}

// cpuRows processes rows [rlo, rhi) of one partition for one feature tile.
func (k *SpMMKernel) cpuRows(out *tensor.Tensor, part *sparse.CSR, tile partition.Range, sc *spmmScratch, rlo, rhi int) {
	lo, hi := tile.Lo, tile.Hi
	ostride := out.RowStride()
	odata := out.Data()

	switch {
	case k.match.Pattern == codegen.CopySrc && (k.agg == AggSum || k.agg == AggMean):
		// Mean accumulates like sum; finalizeAgg divides by the degree.
		x := k.match.X
		xd, xs := x.Data(), x.RowStride()
		for r := rlo; r < rhi; r++ {
			sumRows(odata[r*ostride+lo:r*ostride+hi], xd, xs, lo, part.ColIdx[part.RowPtr[r]:part.RowPtr[r+1]])
		}

	case k.match.Pattern == codegen.CopySrc && (k.agg == AggMax || k.agg == AggMin):
		x := k.match.X
		xd, xs := x.Data(), x.RowStride()
		isMax := k.agg == AggMax
		for r := rlo; r < rhi; r++ {
			orow := odata[r*ostride+lo : r*ostride+hi]
			for p := part.RowPtr[r]; p < part.RowPtr[r+1]; p++ {
				c := int(part.ColIdx[p])
				xrow := xd[c*xs+lo : c*xs+hi]
				if isMax {
					for f := range orow {
						if xrow[f] > orow[f] {
							orow[f] = xrow[f]
						}
					}
				} else {
					for f := range orow {
						if xrow[f] < orow[f] {
							orow[f] = xrow[f]
						}
					}
				}
			}
		}

	case k.match.Pattern == codegen.SrcMulEdgeScalar && (k.agg == AggSum || k.agg == AggMean):
		x, e := k.match.X, k.match.E
		xd, xs := x.Data(), x.RowStride()
		ed := e.Data()
		for r := rlo; r < rhi; r++ {
			plo, phi := part.RowPtr[r], part.RowPtr[r+1]
			scaledSumRows(odata[r*ostride+lo:r*ostride+hi], xd, xs, lo, part.ColIdx[plo:phi], part.EID[plo:phi], ed)
		}

	case k.match.Pattern == codegen.CopyEdge && (k.agg == AggSum || k.agg == AggMean):
		e := k.match.E
		ed, es := e.Data(), e.RowStride()
		for r := rlo; r < rhi; r++ {
			sumRows(odata[r*ostride+lo:r*ostride+hi], ed, es, lo, part.EID[part.RowPtr[r]:part.RowPtr[r+1]])
		}

	case k.match.Pattern == codegen.MLPSrcDst:
		// MLP aggregation with the scheduled loop order: the combined
		// feature x_src+x_dst is computed once per edge, then the product
		// walks rows of W (contiguous) an 8-column register block at a time
		// — the optimization the blackbox baselines cannot apply.
		x, w := k.match.X, k.match.W
		xd, xs := x.Data(), x.RowStride()
		wd, ws := w.Data()[lo:], w.RowStride()
		tmp := sc.tmp[:w.Dim(0)]
		for r := rlo; r < rhi; r++ {
			orow := odata[r*ostride+lo : r*ostride+hi]
			// Dst features live at the global row; out at the local one
			// (identical for non-sharded kernels, where dstBase is 0).
			xv := xd[(r+k.dstBase)*xs:][:len(tmp)]
			for p := part.RowPtr[r]; p < part.RowPtr[r+1]; p++ {
				xu := xd[int(part.ColIdx[p])*xs:][:len(tmp)]
				for kk := range tmp {
					tmp[kk] = xu[kk] + xv[kk]
				}
				mlpFold(k.agg, orow, tmp, wd, ws, k.match.Relu)
			}
		}

	default:
		// Generic path: evaluate the compiled UDF per edge over the tile
		// sub-range, then fold with the aggregation operator.
		msg := sc.msg[:hi-lo]
		for r := rlo; r < rhi; r++ {
			orow := odata[r*ostride+lo : r*ostride+hi]
			for p := part.RowPtr[r]; p < part.RowPtr[r+1]; p++ {
				k.compiled.Eval(sc.env, part.ColIdx[p], int32(r+k.dstBase), part.EID[p], msg, lo, hi)
				aggInto(k.agg, orow, msg)
			}
		}
	}
}

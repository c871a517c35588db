package dgl

import (
	"context"
	"fmt"
	"math"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// negInf32 initializes segment-max scans: a true -Inf (not a large-negative
// literal), so any finite score replaces it.
var negInf32 = float32(math.Inf(-1))

// Message-passing operations. Each op is built once per model layer (kernel
// compilation is per-topology, amortized over epochs, §IV-B) and applied
// once per tape: FeatGraph-backend ops stage their inputs into buffers the
// compiled kernels are bound to, so a second ApplyCtx on the same tape would
// clobber state the backward pass still needs.
//
// Kernels are obtained through the plan cache (plancache.go): op
// construction registers each plan (a miss builds it), and every ApplyCtx
// re-fetches by key (a hit), so repeated epochs — and re-constructed models
// sharing buffers — never re-run kernel compilation.

// fdsFor builds the op's feature dimension schedule from the config: tile
// the output axis on CPU, bind it to thread.x on GPU.
func (g *Graph) fdsFor(udf *expr.UDF) *schedule.FDS {
	fds := schedule.New()
	if g.cfg.FeatureTileFactor > 0 {
		fds.Split(udf.OutAxes[0], g.cfg.FeatureTileFactor)
	}
	if g.cfg.Target == core.GPU {
		fds.Bind(udf.OutAxes[0], schedule.ThreadX)
	}
	return fds
}

// CopyAggOp aggregates source features into destinations:
// out[v] = agg over u→v of x[u], with agg ∈ {sum, mean}.
type CopyAggOp struct {
	g    *Graph
	d    int
	mean bool

	// FeatGraph backend state.
	xbuf, gbuf     *tensor.Tensor
	invDegEdge     *tensor.Tensor // per-edge 1/deg(dst) weights (mean backward)
	fwdKey, bwdKey planKey
}

// NewCopySum builds a sum-aggregation op for d-dimensional features
// (GCN aggregation).
func (g *Graph) NewCopySum(d int) (*CopyAggOp, error) { return g.newCopyAgg(d, false) }

// NewCopyMean builds a mean-aggregation op (GraphSage's aggregator).
func (g *Graph) NewCopyMean(d int) (*CopyAggOp, error) { return g.newCopyAgg(d, true) }

func (g *Graph) newCopyAgg(d int, mean bool) (*CopyAggOp, error) {
	op := &CopyAggOp{g: g, d: d, mean: mean}
	if g.cfg.Backend != FeatGraph {
		return op, nil
	}
	n := g.NumVertices()
	op.xbuf = tensor.New(n, d)
	op.gbuf = tensor.New(n, d)

	agg := core.AggSum
	if mean {
		agg = core.AggMean
		// dX[u] = Σ_{u→v} dOut[v] / deg(v): a weighted copy along the
		// transposed edges with constant per-edge weights.
		op.invDegEdge = tensor.New(g.edgeExtent(), 1)
		wd := op.invDegEdge.Data()
		for r := 0; r < n; r++ {
			for p := g.adj.RowPtr[r]; p < g.adj.RowPtr[r+1]; p++ {
				wd[g.adj.EID[p]] = g.invDeg[r]
			}
		}
	}
	// The nil/non-nil invDegEdge distinguishes the sum and mean backward
	// plans; everything else about the keys is shared.
	op.fwdKey = g.planKeyFor("copyagg.fwd", g.adj, op.xbuf, nil, d, agg)
	op.bwdKey = g.planKeyFor("copyagg.bwd", g.adjT, op.gbuf, op.invDegEdge, d, core.AggSum)
	if _, err := g.plan(op.fwdKey, op.buildFwd); err != nil {
		return nil, fmt.Errorf("dgl: copy-agg forward: %w", err)
	}
	if _, err := g.plan(op.bwdKey, op.buildBwd); err != nil {
		return nil, fmt.Errorf("dgl: copy-agg backward: %w", err)
	}
	return op, nil
}

func (op *CopyAggOp) buildFwd() (core.Kernel, error) {
	g := op.g
	agg := core.AggSum
	if op.mean {
		agg = core.AggMean
	}
	udf := expr.CopySrc(g.NumVertices(), op.d)
	k, err := core.BuildSpMM(g.adj, udf, []*tensor.Tensor{op.xbuf}, agg, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

func (op *CopyAggOp) buildBwd() (core.Kernel, error) {
	g := op.g
	n := g.NumVertices()
	var udf *expr.UDF
	inputs := []*tensor.Tensor{op.gbuf}
	if op.mean {
		udf = expr.SrcMulEdgeScalar(n, g.edgeExtent(), op.d)
		inputs = append(inputs, op.invDegEdge)
	} else {
		udf = expr.CopySrc(n, op.d)
	}
	k, err := core.BuildSpMM(g.adjT, udf, inputs, core.AggSum, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// ApplyCtx records the aggregation on the tape. The kernel runs the op
// issues (forward now, backward when the tape unwinds) execute under ctx,
// and their statistics accumulate onto info (nil collects nothing). ctx
// must not be nil. The call touches no shared graph state, so concurrent
// callers with distinct ops on one Graph need no locking.
func (op *CopyAggOp) ApplyCtx(ctx context.Context, tp *autodiff.Tape, x *autodiff.Var, info *RunInfo) *autodiff.Var {
	g := op.g
	n := g.NumVertices()
	if g.cfg.Backend == FeatGraph {
		return tp.Custom(
			func() *tensor.Tensor {
				copy(op.xbuf.Data(), x.Value.Data())
				out := tensor.New(n, op.d)
				stats, err := g.mustPlan(op.fwdKey, op.buildFwd).RunCtx(ctx, out)
				if err != nil {
					panic(opError("copy-agg forward", err))
				}
				info.observe(stats)
				return out
			},
			func(dOut *tensor.Tensor) {
				copy(op.gbuf.Data(), dOut.Data())
				dx := tensor.New(n, op.d)
				stats, err := g.mustPlan(op.bwdKey, op.buildBwd).RunCtx(ctx, dx)
				if err != nil {
					panic(opError("copy-agg backward", err))
				}
				info.observe(stats)
				autodiff.SeedGrad(x, dx)
			})
	}
	// Naive backend: materialize messages, then segment-reduce.
	return tp.Custom(
		func() *tensor.Tensor {
			msg := g.naiveGather(g.adj, x.Value, nil, op.d)
			out := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adj, msg, out, op.mean)
			return out
		},
		func(dOut *tensor.Tensor) {
			var scale []float32
			if op.mean {
				scale = g.invDeg // dMsg[e] = dOut[dst]/deg(dst)
			}
			dmsg := g.naiveGatherByDst(g.adj, dOut, scale, false, op.d)
			dx := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adjT, dmsg, dx, false)
			autodiff.SeedGrad(x, dx)
		})
}

// WeightedSumOp computes out[v] = Σ_{u→v} w[e] * x[u] with a learnable
// scalar weight per edge — GAT's attention-weighted aggregation. Its
// weight gradient follows the SDDMM pattern, the paper's §II-A duality.
type WeightedSumOp struct {
	g *Graph
	d int

	xbuf, gbuf               *tensor.Tensor
	wbuf                     *tensor.Tensor // [m,1] edge weights
	fwdKey, bwdXKey, bwdWKey planKey
}

// NewWeightedSum builds a weighted-sum op for d-dimensional features.
func (g *Graph) NewWeightedSum(d int) (*WeightedSumOp, error) {
	op := &WeightedSumOp{g: g, d: d}
	if g.cfg.Backend != FeatGraph {
		return op, nil
	}
	n := g.NumVertices()
	op.xbuf = tensor.New(n, d)
	op.gbuf = tensor.New(n, d)
	op.wbuf = tensor.New(g.edgeExtent(), 1)

	op.fwdKey = g.planKeyFor("wsum.fwd", g.adj, op.xbuf, op.wbuf, d, core.AggSum)
	op.bwdXKey = g.planKeyFor("wsum.bwdX", g.adjT, op.gbuf, op.wbuf, d, core.AggSum)
	op.bwdWKey = g.planKeyFor("wsum.bwdW", g.adj, op.xbuf, op.gbuf, d, core.AggSum)
	if _, err := g.plan(op.fwdKey, op.buildFwd); err != nil {
		return nil, fmt.Errorf("dgl: weighted-sum forward: %w", err)
	}
	if _, err := g.plan(op.bwdXKey, op.buildBwdX); err != nil {
		return nil, fmt.Errorf("dgl: weighted-sum backward dX: %w", err)
	}
	if _, err := g.plan(op.bwdWKey, op.buildBwdW); err != nil {
		return nil, fmt.Errorf("dgl: weighted-sum backward dW: %w", err)
	}
	return op, nil
}

func (op *WeightedSumOp) buildFwd() (core.Kernel, error) {
	g := op.g
	udf := expr.SrcMulEdgeScalar(g.NumVertices(), g.edgeExtent(), op.d)
	k, err := core.BuildSpMM(g.adj, udf, []*tensor.Tensor{op.xbuf, op.wbuf}, core.AggSum, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

func (op *WeightedSumOp) buildBwdX() (core.Kernel, error) {
	g := op.g
	udf := expr.SrcMulEdgeScalar(g.NumVertices(), g.edgeExtent(), op.d)
	k, err := core.BuildSpMM(g.adjT, udf, []*tensor.Tensor{op.gbuf, op.wbuf}, core.AggSum, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// buildBwdW compiles dW[e] = x[src] · dOut[dst]: an SDDMM.
func (op *WeightedSumOp) buildBwdW() (core.Kernel, error) {
	g := op.g
	udf, inputs := dotUDF(g.NumVertices(), op.d, op.xbuf, op.gbuf)
	k, err := core.BuildSDDMM(g.adj, udf, inputs, sddmmFDS(g, udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// dotUDF builds the two-operand dot-product edge function
// out[0] = Σ_k A[src,k] * B[dst,k].
func dotUDF(n, d int, a, b *tensor.Tensor) (*expr.UDF, []*tensor.Tensor) {
	bld := expr.NewBuilder()
	ap := bld.Placeholder("A", n, d)
	bp := bld.Placeholder("B", n, d)
	i := bld.OutAxis("i", 1)
	k := bld.ReduceAxis("k", d)
	udf := bld.UDF(expr.Sum(k, expr.Mul(ap.At(expr.Src, k), bp.At(expr.Dst, k))), i)
	return udf, []*tensor.Tensor{a, b}
}

// sddmmFDS gives SDDMM ops their schedule: tree reduction on GPU.
func sddmmFDS(g *Graph, udf *expr.UDF) *schedule.FDS {
	fds := schedule.New()
	if g.cfg.Target == core.GPU {
		if ax := reduceAxisOf(udf); ax != nil {
			fds.TreeReduce(ax, schedule.ThreadX)
		}
	}
	return fds
}

func reduceAxisOf(udf *expr.UDF) *expr.Axis {
	if red, ok := udf.Body.(*expr.Reduce); ok {
		return red.Axis
	}
	return nil
}

// ApplyCtx records out = Σ w[e]·x[src] on the tape; w must be an [m,1]
// Var. See CopyAggOp.ApplyCtx for the ctx/info contract.
func (op *WeightedSumOp) ApplyCtx(ctx context.Context, tp *autodiff.Tape, x, w *autodiff.Var, info *RunInfo) *autodiff.Var {
	g := op.g
	n, m := g.NumVertices(), g.NumEdges()
	if w.Value.Dim(0) != m {
		panic(fmt.Sprintf("dgl: weighted-sum expects %d edge weights, got %d", m, w.Value.Dim(0)))
	}
	if g.cfg.Backend == FeatGraph {
		return tp.Custom(
			func() *tensor.Tensor {
				copy(op.xbuf.Data(), x.Value.Data())
				copy(op.wbuf.Data(), w.Value.Data())
				out := tensor.New(n, op.d)
				stats, err := g.mustPlan(op.fwdKey, op.buildFwd).RunCtx(ctx, out)
				if err != nil {
					panic(opError("weighted-sum forward", err))
				}
				info.observe(stats)
				return out
			},
			func(dOut *tensor.Tensor) {
				copy(op.gbuf.Data(), dOut.Data())
				dx := tensor.New(n, op.d)
				stats, err := g.mustPlan(op.bwdXKey, op.buildBwdX).RunCtx(ctx, dx)
				if err != nil {
					panic(opError("weighted-sum backward dX", err))
				}
				info.observe(stats)
				autodiff.SeedGrad(x, dx)

				dw := tensor.New(m, 1)
				stats, err = g.mustPlan(op.bwdWKey, op.buildBwdW).RunCtx(ctx, dw)
				if err != nil {
					panic(opError("weighted-sum backward dW", err))
				}
				info.observe(stats)
				autodiff.SeedGrad(w, dw)
			})
	}
	return tp.Custom(
		func() *tensor.Tensor {
			msg := g.naiveGather(g.adj, x.Value, w.Value.Data(), op.d)
			out := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adj, msg, out, false)
			return out
		},
		func(dOut *tensor.Tensor) {
			dmsg := g.naiveGatherByDst(g.adj, dOut, w.Value.Data(), true, op.d)
			dx := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adjT, dmsg, dx, false)
			autodiff.SeedGrad(x, dx)
			dw := tensor.New(m, 1)
			g.naiveEdgeDot(x.Value, dOut, dw)
			autodiff.SeedGrad(w, dw)
		})
}

// DotOp computes att[e] = x[src] · y[dst] for every edge — dot-product
// attention (vanilla SDDMM). Its input gradients follow the SpMM pattern.
type DotOp struct {
	g *Graph
	d int

	xbuf, ybuf               *tensor.Tensor
	dattbuf                  *tensor.Tensor
	fwdKey, bwdXKey, bwdYKey planKey
}

// NewDot builds a dot-product attention op for d-dimensional features.
func (g *Graph) NewDot(d int) (*DotOp, error) {
	op := &DotOp{g: g, d: d}
	if g.cfg.Backend != FeatGraph {
		return op, nil
	}
	n := g.NumVertices()
	op.xbuf = tensor.New(n, d)
	op.ybuf = tensor.New(n, d)
	op.dattbuf = tensor.New(g.edgeExtent(), 1)

	op.fwdKey = g.planKeyFor("dot.fwd", g.adj, op.xbuf, op.ybuf, d, core.AggSum)
	op.bwdXKey = g.planKeyFor("dot.bwdX", g.adjT, op.ybuf, op.dattbuf, d, core.AggSum)
	op.bwdYKey = g.planKeyFor("dot.bwdY", g.adj, op.xbuf, op.dattbuf, d, core.AggSum)
	if _, err := g.plan(op.fwdKey, op.buildFwd); err != nil {
		return nil, fmt.Errorf("dgl: dot forward: %w", err)
	}
	if _, err := g.plan(op.bwdXKey, op.buildBwdX); err != nil {
		return nil, fmt.Errorf("dgl: dot backward dX: %w", err)
	}
	if _, err := g.plan(op.bwdYKey, op.buildBwdY); err != nil {
		return nil, fmt.Errorf("dgl: dot backward dY: %w", err)
	}
	return op, nil
}

func (op *DotOp) buildFwd() (core.Kernel, error) {
	g := op.g
	udf, inputs := dotUDF(g.NumVertices(), op.d, op.xbuf, op.ybuf)
	k, err := core.BuildSDDMM(g.adj, udf, inputs, sddmmFDS(g, udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// buildBwdX compiles dX[u] = Σ_{u→v} dAtt[e]·y[v] (SpMM on the transpose).
func (op *DotOp) buildBwdX() (core.Kernel, error) {
	g := op.g
	udf := expr.SrcMulEdgeScalar(g.NumVertices(), g.edgeExtent(), op.d)
	k, err := core.BuildSpMM(g.adjT, udf, []*tensor.Tensor{op.ybuf, op.dattbuf}, core.AggSum, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// buildBwdY compiles dY[v] = Σ_{u→v} dAtt[e]·x[u] (SpMM on the adjacency).
func (op *DotOp) buildBwdY() (core.Kernel, error) {
	g := op.g
	udf := expr.SrcMulEdgeScalar(g.NumVertices(), g.edgeExtent(), op.d)
	k, err := core.BuildSpMM(g.adj, udf, []*tensor.Tensor{op.xbuf, op.dattbuf}, core.AggSum, g.fdsFor(udf), g.coreOptions())
	if err != nil {
		return nil, err
	}
	return k, nil
}

// ApplyCtx records att = x·y per edge; x and y may be the same Var (GAT).
// See CopyAggOp.ApplyCtx for the ctx/info contract.
func (op *DotOp) ApplyCtx(ctx context.Context, tp *autodiff.Tape, x, y *autodiff.Var, info *RunInfo) *autodiff.Var {
	g := op.g
	n, m := g.NumVertices(), g.NumEdges()
	if g.cfg.Backend == FeatGraph {
		return tp.Custom(
			func() *tensor.Tensor {
				copy(op.xbuf.Data(), x.Value.Data())
				copy(op.ybuf.Data(), y.Value.Data())
				att := tensor.New(m, 1)
				stats, err := g.mustPlan(op.fwdKey, op.buildFwd).RunCtx(ctx, att)
				if err != nil {
					panic(opError("dot forward", err))
				}
				info.observe(stats)
				return att
			},
			func(dOut *tensor.Tensor) {
				copy(op.dattbuf.Data(), dOut.Data())
				dx := tensor.New(n, op.d)
				stats, err := g.mustPlan(op.bwdXKey, op.buildBwdX).RunCtx(ctx, dx)
				if err != nil {
					panic(opError("dot backward dX", err))
				}
				info.observe(stats)
				autodiff.SeedGrad(x, dx)

				dy := tensor.New(n, op.d)
				stats, err = g.mustPlan(op.bwdYKey, op.buildBwdY).RunCtx(ctx, dy)
				if err != nil {
					panic(opError("dot backward dY", err))
				}
				info.observe(stats)
				autodiff.SeedGrad(y, dy)
			})
	}
	return tp.Custom(
		func() *tensor.Tensor {
			att := tensor.New(m, 1)
			g.naiveEdgeDot(x.Value, y.Value, att)
			return att
		},
		func(dOut *tensor.Tensor) {
			datt := dOut.Data()
			dmsgX := g.naiveGatherByDst(g.adj, y.Value, datt, true, op.d) // dAtt[e]·y[dst]
			dx := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adjT, dmsgX, dx, false)
			autodiff.SeedGrad(x, dx)

			dmsgY := g.naiveGather(g.adj, x.Value, datt, op.d) // dAtt[e]·x[src]
			dy := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adj, dmsgY, dy, false)
			autodiff.SeedGrad(y, dy)
		})
}

// EdgeSoftmax normalizes an [m,1] edge score tensor per destination
// vertex: α_e = exp(att_e) / Σ_{e'∈in(dst(e))} exp(att_e'). Both backends
// share this segment implementation (DGL ships it as a dedicated kernel);
// the GPU cost model charges a few passes over the edges.
//
// Destination rows are independent, so both directions run as edge-balanced
// row chunks on the shared worker pool — each row's edges are touched by
// exactly one chunk, keeping the per-edge writes race-free.
func (g *Graph) EdgeSoftmax(tp *autodiff.Tape, att *autodiff.Var) *autodiff.Var {
	m := g.NumEdges()
	if att.Value.Dim(0) != m || att.Value.Len() != m {
		panic(fmt.Sprintf("dgl: EdgeSoftmax expects [%d,1] scores, got %v", m, att.Value.Shape()))
	}
	adj := g.adj
	probs := tensor.New(m, 1)
	return tp.Custom(
		func() *tensor.Tensor {
			ad, pd := att.Value.Data(), probs.Data()
			g.segParallel(func(v int) {
				lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
				if lo == hi {
					return
				}
				maxv := negInf32
				for p := lo; p < hi; p++ {
					if s := ad[adj.EID[p]]; s > maxv {
						maxv = s
					}
				}
				var sum float64
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					pd[e] = exp32(ad[e] - maxv)
					sum += float64(pd[e])
				}
				inv := float32(1 / sum)
				for p := lo; p < hi; p++ {
					pd[adj.EID[p]] *= inv
				}
			})
			g.charge(uint64(m) * 8)
			return probs.Clone()
		},
		func(dOut *tensor.Tensor) {
			datt := autodiff.EnsureGrad(att).Data()
			pd, gd := probs.Data(), dOut.Data()
			g.segParallel(func(v int) {
				lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
				if lo == hi {
					return
				}
				var dot float64
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					dot += float64(pd[e] * gd[e])
				}
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					datt[e] += pd[e] * (gd[e] - float32(dot))
				}
			})
			g.charge(uint64(m) * 6)
		})
}

// segParallel runs row across every destination vertex, dispatched to the
// shared worker pool as the graph's edge-balanced row chunks. row must not
// panic and must touch only its own row's edges.
func (g *Graph) segParallel(row func(v int)) {
	chunks := g.segRowChunks()
	threads := max(g.cfg.NumThreads, 1)
	if threads <= 1 || len(chunks) <= 1 {
		for v := 0; v < g.adj.NumRows; v++ {
			row(v)
		}
		return
	}
	job := workpool.Job{Body: func(_, ci int) {
		r := chunks[ci]
		for v := r.Lo; v < r.Hi; v++ {
			row(v)
		}
	}}
	workpool.Default().Run(&job, len(chunks), threads)
}

func exp32(x float32) float32 {
	// A float64 round-trip keeps accuracy; this is not a hot path compared
	// to the sparse kernels.
	return float32(exp64(float64(x)))
}

// DenseMatMul is tape.MatMul plus simulated-GPU accounting for the dense
// work (forward 2mkn flops, backward twice that), so end-to-end GPU
// timings include the models' dense layers, as the paper's Table VI does.
func (g *Graph) DenseMatMul(tp *autodiff.Tape, a, b *autodiff.Var) *autodiff.Var {
	m := a.Value.Dim(0)
	kk := a.Value.Dim(1)
	n := b.Value.Dim(1)
	flops := 2 * uint64(m) * uint64(kk) * uint64(n)
	g.ChargeDense(flops)
	out := tp.MatMul(a, b)
	// Backward computes two products of the same size; charge eagerly
	// since the tape offers no backward hook for built-in ops.
	g.ChargeDense(2 * flops)
	return out
}

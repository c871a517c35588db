// The fused attention backward: the softmax Jacobian folded into the
// dScore/dX/dY passes, consuming the alpha and deriv vectors the forward
// produced instead of replaying any of the three stages.
//
// With s the raw scores, α = softmax_row(s), out_v = Σ α_e x_u, and an
// upstream gradient dOut, the chain is, per destination row v:
//
//	dα_e = dOut_v · x_u                       (per in-edge)
//	ds_e = α_e (dα_e − Σ_{e'∈row} α_e' dα_e') (softmax Jacobian)
//	dE_e = ds_e · deriv_e                      (score-transform chain)
//	dY_v = Σ_e dE_e · x_u
//	dX_u = α_e dOut_v + dE_e · y_v  summed over u's out-edges
//
// dY and dE are per-destination-row reductions (phase 1, parallel over adj
// rows); dX is a per-source-row reduction (phase 2, parallel over the
// transpose's rows, reading the dE buffer phase 1 filled). Splitting by
// traversal direction is what keeps both phases scatter-free: each output
// row is written by exactly one chunk, so no atomics and no data races.
//
// The kernel produces one [NumCols+NumRows, d] tensor — rows [0, NumCols)
// are dX, rows [NumCols, NumCols+NumRows) are dY — so it fits the
// single-output core.Kernel interface and travels through dgl's plan cache
// like any template kernel.
package core

import (
	"context"
	"fmt"
	"time"

	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// FusedAttnBwdKernel is the built fused backward kernel.
type FusedAttnBwdKernel struct {
	governed
	adj, adjT *sparse.CSR
	x, y      *tensor.Tensor // the forward's feature inputs
	alpha     *tensor.Tensor // [≥m, 1] softmax probabilities from the forward
	deriv     *tensor.Tensor // [≥m, 1] dscore/ddot factors from the forward
	dout      *tensor.Tensor // [NumRows, d] upstream gradient, staged by the caller
	d         int
	maxInDeg  int

	chunksAdj  []partition.Range // phase 1: destination rows of adj
	chunksAdjT []partition.Range // phase 2: source rows of adjT
	states     chan *fusedAttnBwdRunState

	gpu *fusedAttnGPU
}

// BuildFusedAttentionBwd builds the fused backward kernel. adjT must be the
// transpose of adj with edge ids preserved (sparse.CSR.Transpose keeps
// them). x, y, alpha and deriv are the same tensors the forward kernel was
// built with; dout is the caller's staging buffer for the upstream
// gradient, read on every run.
func BuildFusedAttentionBwd(adj, adjT *sparse.CSR, x, y, alpha, deriv, dout *tensor.Tensor, opts Options) (*FusedAttnBwdKernel, error) {
	tracing := telemetry.TraceActive()
	var buildStart time.Time
	if tracing {
		buildStart = time.Now()
	}
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid adjacency: %w", err)
	}
	if adjT.NumRows != adj.NumCols || adjT.NumCols != adj.NumRows || adjT.NNZ() != adj.NNZ() {
		return nil, fmt.Errorf("core: fused attention transpose shape %dx%d/%d, want %dx%d/%d",
			adjT.NumRows, adjT.NumCols, adjT.NNZ(), adj.NumCols, adj.NumRows, adj.NNZ())
	}
	d := x.Dim(1)
	if d < 1 || x.Dim(0) != adj.NumCols || y.Dim(0) != adj.NumRows || y.Dim(1) != d {
		return nil, fmt.Errorf("core: fused attention backward feature shapes x%v y%v, want [%d, d] [%d, d]",
			x.Shape(), y.Shape(), adj.NumCols, adj.NumRows)
	}
	m := adj.NNZ()
	if alpha.Len() < m || deriv.Len() < m {
		return nil, fmt.Errorf("core: fused attention edge buffers hold %d/%d values, graph has %d edges", alpha.Len(), deriv.Len(), m)
	}
	if dout.Dim(0) != adj.NumRows || dout.Len() != adj.NumRows*d {
		return nil, fmt.Errorf("core: fused attention dOut shape %v, want [%d, %d]", dout.Shape(), adj.NumRows, d)
	}
	if opts.Target != CPU && opts.Target != GPU {
		return nil, fmt.Errorf("core: unknown target %d", opts.Target)
	}
	k := &FusedAttnBwdKernel{adj: adj, adjT: adjT, x: x, y: y, alpha: alpha, deriv: deriv, dout: dout, d: d}
	k.init("fusedattn.bwd", "fused attention backward", fusedattnMetrics, opts, adj.NumCols+adj.NumRows, d)
	k.maxInDeg = maxRowDegree(adj)
	threads := max(opts.NumThreads, 1)
	k.chunksAdj = edgeBalancedChunks(adj, numChunksFor(threads, adj.NumRows, m))
	k.chunksAdjT = edgeBalancedChunks(adjT, numChunksFor(threads, adjT.NumRows, m))
	k.states = make(chan *fusedAttnBwdRunState, runStatePoolCap)

	if opts.Target == GPU {
		k.gpu = buildFusedAttnGPU(k.opts)
		k.armGPU()
	}

	// Memory estimate: the [NumCols+NumRows, d] gradient surface, the
	// per-run dE edge buffer, and one state's per-slot dα scratch.
	k.memEstimate = 4 * (int64(adj.NumCols+adj.NumRows)*int64(d) + int64(m) +
		int64(scratchSlots(opts.NumThreads))*int64(k.maxInDeg))

	k.states <- k.newRunState()
	if k.gpu != nil {
		k.gpu.states <- k.newGPULaunch()
	}
	if tracing {
		telemetry.RecordSpan("fusedattn.bwd.build", 0, buildStart, time.Since(buildStart), "rows", int64(adj.NumRows), "nnz", int64(m), 2)
	}
	return k, nil
}

// OutShape returns the stacked gradient shape: rows [0, NumCols) hold dX,
// rows [NumCols, NumCols+NumRows) hold dY.
func (k *FusedAttnBwdKernel) OutShape() (rows, cols int) { return k.adj.NumCols + k.adj.NumRows, k.d }

// Pattern identifies the fused backward kernel.
func (k *FusedAttnBwdKernel) Pattern() string { return "fusedattn.bwd" }

// Describe returns a one-line description of the built kernel.
func (k *FusedAttnBwdKernel) Describe() string {
	return fmt.Sprintf("fusedattn.bwd{target:%s rows:%d nnz:%d d:%d maxdeg:%d}",
		k.opts.Target, k.adj.NumRows, k.adj.NNZ(), k.d, k.maxInDeg)
}

// Run executes the kernel into out (Run = RunCtx under context.Background()).
func (k *FusedAttnBwdKernel) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the fused backward into out ([NumCols+NumRows, d]) under
// ctx and the kernel's serving policy; see governed.go. The alpha/deriv
// buffers must hold the most recent forward's values and dout the upstream
// gradient.
func (k *FusedAttnBwdKernel) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// fusedAttnBwdRunState is one execution's worth of reusable engine state.
// dEdge is the run-private per-edge dE buffer bridging the two phases:
// phase 1 writes each edge exactly once (edges partition by destination
// row), phase 2 reads after the pool barrier, so it is race-free without
// atomics.
type fusedAttnBwdRunState struct {
	engineState
	k      *FusedAttnBwdKernel
	phase2 bool

	dEdge   []float32
	scratch []*fusedAttnScratch // per-slot dα row buffers
}

func (k *FusedAttnBwdKernel) newRunState() *fusedAttnBwdRunState {
	st := &fusedAttnBwdRunState{k: k}
	st.dEdge = make([]float32, k.adj.NNZ())
	st.scratch = make([]*fusedAttnScratch, scratchSlots(k.opts.NumThreads))
	for w := range st.scratch {
		st.scratch[w] = &fusedAttnScratch{scores: make([]float32, k.maxInDeg)}
	}
	st.arm(workerSite{kernel: "fusedattn.bwd", target: CPU, tile: -1, part: -1}, st.runChunk)
	return st
}

// runChunk processes one row chunk of the active phase.
func (st *fusedAttnBwdRunState) runChunk(slot, ci int) {
	k := st.k
	if slot != 0 {
		st.stolen.Add(1)
	}
	faultinject.Hit(faultinject.SiteFusedAttnCPUWorker, st.rc.done, st.rc.quit)
	if st.phase2 {
		r := k.chunksAdjT[ci]
		st.edges.Add(uint64(k.adjT.RowPtr[r.Hi] - k.adjT.RowPtr[r.Lo]))
		for lo := r.Lo; lo < r.Hi; lo += cancelChunk {
			if st.rc.stop() {
				return
			}
			k.bwdSrcRows(st.out, st.dEdge, lo, min(lo+cancelChunk, r.Hi))
		}
		ostride := st.out.RowStride()
		odata := st.out.Data()
		faultinject.CorruptFloats(faultinject.SiteFusedAttnCPUOutput, odata[r.Lo*ostride:r.Hi*ostride])
		return
	}
	r := k.chunksAdj[ci]
	st.edges.Add(uint64(k.adj.RowPtr[r.Hi] - k.adj.RowPtr[r.Lo]))
	sc := st.scratch[slot]
	for lo := r.Lo; lo < r.Hi; lo += cancelChunk {
		if st.rc.stop() {
			return
		}
		k.bwdDstRows(st.out, st.dEdge, sc, lo, min(lo+cancelChunk, r.Hi))
	}
	ostride := st.out.RowStride()
	odata := st.out.Data()
	base := k.adj.NumCols
	faultinject.CorruptFloats(faultinject.SiteFusedAttnCPUOutput, odata[(base+r.Lo)*ostride:(base+r.Hi)*ostride])
}

// runCPU executes the two backward phases on the persistent engine. The
// pool run between them is the barrier that makes phase 2's dEdge reads see
// phase 1's writes.
func (k *FusedAttnBwdKernel) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := getState(k.states, k.newRunState)
	defer putState(k.states, st)
	ctx, w := st.begin(ctx, k.opts.Admission, "fusedattn.bwd/cpu-engine", out)
	defer w.end()
	tracing := telemetry.TraceActive()
	out.Zero()

	var phaseStart time.Time
	st.phase2 = false
	st.site.part = 0
	if tracing {
		phaseStart = time.Now()
	}
	pool.Run(&st.job, len(k.chunksAdj), threads)
	if tracing {
		telemetry.RecordSpan("fusedattn.bwd.phase", 0, phaseStart, time.Since(phaseStart), "phase", 1, "chunks", int64(len(k.chunksAdj)), 2)
	}
	if !st.rc.stop() {
		st.phase2 = true
		st.site.part = 1
		if tracing {
			phaseStart = time.Now()
		}
		pool.Run(&st.job, len(k.chunksAdjT), threads)
		if tracing {
			telemetry.RecordSpan("fusedattn.bwd.phase", 0, phaseStart, time.Since(phaseStart), "phase", 2, "chunks", int64(len(k.chunksAdjT)), 2)
		}
	}
	return st.finish(ctx)
}

// bwdDstRows runs phase 1 for destination rows [rlo, rhi): per-edge dα,
// the softmax Jacobian's row reduction, dE, and the dY accumulation. Writes
// dE into dEdge[eid] and dY into out rows NumCols+v. One body for every
// width: dα two in-edges at a time (dotRows, sharing the dOut row's loads),
// then scaledSumRows folds dE·x four neighbours per pass.
func (k *FusedAttnBwdKernel) bwdDstRows(out *tensor.Tensor, dEdge []float32, sc *fusedAttnScratch, rlo, rhi int) {
	adj := k.adj
	d := k.d
	xd, xs := k.x.Data(), k.x.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	base := adj.NumCols

	for v := rlo; v < rhi; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		if lo == hi {
			continue
		}
		cols, eids := adj.ColIdx[lo:hi], adj.EID[lo:hi]
		dA := sc.scores[:hi-lo]
		dotRows(dA, xd, xs, cols, gd[v*gs:v*gs+d])

		// The Jacobian's row dot Σ α·dα accumulates in float64 to match the
		// 3-pass edge softmax's backward, which the oracle diffs against
		// tight tolerances.
		var rowDot float64
		for j, e := range eids {
			rowDot += float64(ad[e] * dA[j])
		}
		rd := float32(rowDot)
		for j, e := range eids {
			dEdge[e] = ad[e] * (dA[j] - rd) * dd[e]
		}
		scaledSumRows(odata[(base+v)*ostride:][:d], xd, xs, 0, cols, eids, dEdge)
	}
}

// bwdSrcRows runs phase 2 for source rows [rlo, rhi) of the transpose:
// dX_u = Σ over u's out-edges of α_e·dOut_v + dE_e·y_v, into out rows u,
// both terms of two out-edges folded per pass by scaledSumRows2.
func (k *FusedAttnBwdKernel) bwdSrcRows(out *tensor.Tensor, dEdge []float32, rlo, rhi int) {
	adjT := k.adjT
	d := k.d
	yd, ys := k.y.Data(), k.y.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad := k.alpha.Data()
	odata, ostride := out.Data(), out.RowStride()

	for u := rlo; u < rhi; u++ {
		lo, hi := int(adjT.RowPtr[u]), int(adjT.RowPtr[u+1])
		scaledSumRows2(odata[u*ostride:][:d], gd, gs, yd, ys, adjT.ColIdx[lo:hi], adjT.EID[lo:hi], ad, dEdge)
	}
}

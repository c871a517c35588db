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
	st := getState(k, k.states)
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
// dE into dEdge[eid] and dY into out rows NumCols+v.
func (k *FusedAttnBwdKernel) bwdDstRows(out *tensor.Tensor, dEdge []float32, sc *fusedAttnScratch, rlo, rhi int) {
	if k.d%8 == 0 {
		k.bwdDstRowsW8(out, dEdge, sc, rlo, rhi)
		return
	}
	adj := k.adj
	d := k.d
	xd, xs := k.x.Data(), k.x.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	base := adj.NumCols

	for v := rlo; v < rhi; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		deg := hi - lo
		if deg == 0 {
			continue
		}
		gro := gd[v*gs : v*gs+d]
		dA := sc.scores[:deg]

		// dα_e = dOut_v · x_u, and the Jacobian's row dot Σ α·dα. The
		// reduction accumulates in float64 to match the 3-pass edge
		// softmax's backward (which the oracle diffs against bitwise-ly
		// tight tolerances).
		var rowDot float64
		for j := 0; j < deg; j++ {
			p := lo + j
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			// Unrolled with independent accumulators — see fwdRows.
			var s0, s1, s2, s3 float32
			f := 0
			for ; f+4 <= d; f += 4 {
				s0 += xrow[f] * gro[f]
				s1 += xrow[f+1] * gro[f+1]
				s2 += xrow[f+2] * gro[f+2]
				s3 += xrow[f+3] * gro[f+3]
			}
			for ; f < d; f++ {
				s0 += xrow[f] * gro[f]
			}
			s := (s0 + s1) + (s2 + s3)
			dA[j] = s
			rowDot += float64(ad[adj.EID[p]] * s)
		}
		rd := float32(rowDot)

		dyrow := odata[(base+v)*ostride : (base+v)*ostride+d]
		for j := 0; j < deg; j++ {
			p := lo + j
			e := adj.EID[p]
			de := ad[e] * (dA[j] - rd) * dd[e]
			dEdge[e] = de
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			for f := range dyrow {
				dyrow[f] += de * xrow[f]
			}
		}
	}
}

// bwdSrcRows runs phase 2 for source rows [rlo, rhi) of the transpose:
// dX_u = Σ over u's out-edges of α_e·dOut_v + dE_e·y_v, into out rows u.
func (k *FusedAttnBwdKernel) bwdSrcRows(out *tensor.Tensor, dEdge []float32, rlo, rhi int) {
	if k.d%8 == 0 {
		k.bwdSrcRowsW8(out, dEdge, rlo, rhi)
		return
	}
	adjT := k.adjT
	d := k.d
	yd, ys := k.y.Data(), k.y.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad := k.alpha.Data()
	odata, ostride := out.Data(), out.RowStride()

	for u := rlo; u < rhi; u++ {
		lo, hi := int(adjT.RowPtr[u]), int(adjT.RowPtr[u+1])
		if lo == hi {
			continue
		}
		dxrow := odata[u*ostride : u*ostride+d]
		for p := lo; p < hi; p++ {
			e := adjT.EID[p]
			v := int(adjT.ColIdx[p])
			a, de := ad[e], dEdge[e]
			gro := gd[v*gs : v*gs+d]
			yrow := yd[v*ys : v*ys+d]
			for f := range dxrow {
				dxrow[f] += a*gro[f] + de*yrow[f]
			}
		}
	}
}

// bwdDstRowsW8 is bwdDstRows instantiated for multiple-of-eight feature
// widths — fixed 8-wide blocks through array pointers, the same
// width-class specialization as the forward's fwdRowsW8.
func (k *FusedAttnBwdKernel) bwdDstRowsW8(out *tensor.Tensor, dEdge []float32, sc *fusedAttnScratch, rlo, rhi int) {
	adj := k.adj
	d := k.d
	xd, xs := k.x.Data(), k.x.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	base := adj.NumCols

	for v := rlo; v < rhi; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		deg := hi - lo
		if deg == 0 {
			continue
		}
		gro := gd[v*gs : v*gs+d]
		dA := sc.scores[:deg]

		var rowDot float64
		for j := 0; j < deg; j++ {
			p := lo + j
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			var s0, s1, s2, s3 float32
			for f := 0; f+8 <= d; f += 8 {
				xb := (*[8]float32)(xrow[f : f+8])
				gb := (*[8]float32)(gro[f : f+8])
				s0 += xb[0]*gb[0] + xb[4]*gb[4]
				s1 += xb[1]*gb[1] + xb[5]*gb[5]
				s2 += xb[2]*gb[2] + xb[6]*gb[6]
				s3 += xb[3]*gb[3] + xb[7]*gb[7]
			}
			s := (s0 + s1) + (s2 + s3)
			dA[j] = s
			rowDot += float64(ad[adj.EID[p]] * s)
		}
		rd := float32(rowDot)

		// Fold the Jacobian and score-transform chain in place, then
		// accumulate each 8-wide dY block in registers across the in-edge
		// set — one store per block, no read-modify-write per edge.
		for j := 0; j < deg; j++ {
			e := adj.EID[lo+j]
			de := ad[e] * (dA[j] - rd) * dd[e]
			dA[j] = de
			dEdge[e] = de
		}
		dyrow := odata[(base+v)*ostride : (base+v)*ostride+d]
		for f := 0; f+8 <= d; f += 8 {
			ob := (*[8]float32)(dyrow[f : f+8])
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for j := 0; j < deg; j++ {
				de := dA[j]
				xbase := int(adj.ColIdx[lo+j])*xs + f
				xb := (*[8]float32)(xd[xbase : xbase+8])
				a0 += de * xb[0]
				a1 += de * xb[1]
				a2 += de * xb[2]
				a3 += de * xb[3]
				a4 += de * xb[4]
				a5 += de * xb[5]
				a6 += de * xb[6]
				a7 += de * xb[7]
			}
			ob[0] += a0
			ob[1] += a1
			ob[2] += a2
			ob[3] += a3
			ob[4] += a4
			ob[5] += a5
			ob[6] += a6
			ob[7] += a7
		}
	}
}

// bwdSrcRowsW8 is bwdSrcRows instantiated for multiple-of-eight feature
// widths; see bwdDstRowsW8.
func (k *FusedAttnBwdKernel) bwdSrcRowsW8(out *tensor.Tensor, dEdge []float32, rlo, rhi int) {
	adjT := k.adjT
	d := k.d
	yd, ys := k.y.Data(), k.y.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad := k.alpha.Data()
	odata, ostride := out.Data(), out.RowStride()

	for u := rlo; u < rhi; u++ {
		lo, hi := int(adjT.RowPtr[u]), int(adjT.RowPtr[u+1])
		if lo == hi {
			continue
		}
		dxrow := odata[u*ostride : u*ostride+d]
		for f := 0; f+8 <= d; f += 8 {
			ob := (*[8]float32)(dxrow[f : f+8])
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for p := lo; p < hi; p++ {
				e := adjT.EID[p]
				v := int(adjT.ColIdx[p])
				a, de := ad[e], dEdge[e]
				gbase := v*gs + f
				ybase := v*ys + f
				gb := (*[8]float32)(gd[gbase : gbase+8])
				yb := (*[8]float32)(yd[ybase : ybase+8])
				a0 += a*gb[0] + de*yb[0]
				a1 += a*gb[1] + de*yb[1]
				a2 += a*gb[2] + de*yb[2]
				a3 += a*gb[3] + de*yb[3]
				a4 += a*gb[4] + de*yb[4]
				a5 += a*gb[5] + de*yb[5]
				a6 += a*gb[6] + de*yb[6]
				a7 += a*gb[7] + de*yb[7]
			}
			ob[0] += a0
			ob[1] += a1
			ob[2] += a2
			ob[3] += a3
			ob[4] += a4
			ob[5] += a5
			ob[6] += a6
			ob[7] += a7
		}
	}
}

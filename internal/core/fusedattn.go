// The fused attention kernel: SDDMM (dot-product scores) → edge softmax →
// SpMM (attention-weighted sum) in a single destination-row pass, the
// FusedMM-style fusion of the three kernels GAT attention otherwise runs
// separately. The paper's §II-A decomposition makes the stages explicit;
// this kernel exploits that the softmax of a destination row only depends
// on that row's in-edges, so one traversal can compute scores, normalize
// them, and aggregate — with the scores held in chunk-local scratch sized
// by the maximum in-degree, never materialized as a full [m,1] tensor
// between stages.
//
// Numerics: each row runs a max-then-exponentiate softmax — one pass
// maintains the running maximum while buffering raw scores, then a second
// pass computes e^(s−max) with the batch float32 exponential (ExpSliceF32),
// sums it, and normalizes. Every exponentiated argument is ≤ 0, so the sums
// stay finite for any input magnitudes — the same stability guarantee as
// the flash-attention online-softmax recurrence, at one exp per edge
// instead of two (the scores are already buffered in chunk-local scratch,
// so there is no need to rescale a partial sum on a new maximum).
//
// The forward additionally writes two per-edge vectors the fused backward
// needs: alpha (the softmax probabilities) and deriv (dscore/ddot =
// scale·LeakyReLU'(dot), folding the score transform's local derivative).
// Both are caller-owned [m,1] buffers — for dgl they are the op's staging
// buffers, which also makes them plan-cache key material.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// negInf32 is the streaming-softmax running-max initializer: a true
// -Inf rather than a most-negative-finite literal, so any finite score
// (however small) replaces it and the e^(m_old−m_new) rescale underflows
// cleanly to zero on the first edge.
var negInf32 = float32(math.Inf(-1))

// FusedAttnConfig parameterizes the score transform applied between the
// dot product and the softmax: score = Scale · LeakyReLU(x_src·y_dst).
type FusedAttnConfig struct {
	// NegSlope is the LeakyReLU negative slope (GAT uses 0.2).
	NegSlope float32
	// Scale multiplies the activated score (GAT uses 1/√d); 0 means 1.
	Scale float32
}

// FusedAttnKernel is the built fused forward kernel. Out is [NumRows, d]:
// out[v] = Σ_{u→v} α_e · x[u] with α the per-destination-row softmax of
// Scale·LeakyReLU(x[u]·y[v]).
//
// Like the template kernels it may be Run concurrently only with distinct
// output tensors — and additionally only with distinct alpha/deriv buffers,
// which belong to the build, so concurrent runs of the *same* built kernel
// race on them. dgl serializes per-op Applies, which satisfies both.
type FusedAttnKernel struct {
	governed
	adj      *sparse.CSR
	x, y     *tensor.Tensor // [NumCols, d] source / [NumRows, d] destination features
	alpha    *tensor.Tensor // [≥m, 1] softmax probabilities, written per run
	deriv    *tensor.Tensor // [≥m, 1] dscore/ddot factors, written per run
	cfg      FusedAttnConfig
	d        int
	maxInDeg int

	// Engine state: edge-balanced row chunks and the run-state freelist.
	chunks []partition.Range
	states chan *fusedAttnRunState

	// GPU state; nil when the target is CPU.
	gpu *fusedAttnGPU
}

// BuildFusedAttention builds the fused attention forward kernel. x holds
// source-vertex features ([NumCols, d]), y destination-vertex features
// ([NumRows, d]; the same tensor as x in GAT). alpha and deriv are
// caller-owned per-edge buffers with at least adj.NNZ() elements each; the
// kernel fills them on every run for consumption by the backward kernel.
//
// Scheduling: the kernel ignores graph partitioning and feature tiling —
// the row softmax needs a destination's full in-edge set and the dot
// product the full feature row, so the only parallel axis is the
// destination row, dispatched as edge-balanced chunks on the shared worker
// pool.
func BuildFusedAttention(adj *sparse.CSR, x, y, alpha, deriv *tensor.Tensor, cfg FusedAttnConfig, opts Options) (*FusedAttnKernel, error) {
	tracing := telemetry.TraceActive()
	var buildStart time.Time
	if tracing {
		buildStart = time.Now()
	}
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid adjacency: %w", err)
	}
	d := x.Dim(1)
	if d < 1 {
		return nil, fmt.Errorf("core: fused attention needs >= 1 feature, got %d", d)
	}
	if x.Dim(0) != adj.NumCols {
		return nil, fmt.Errorf("core: fused attention x has %d rows, graph has %d source vertices", x.Dim(0), adj.NumCols)
	}
	if y.Dim(0) != adj.NumRows || y.Dim(1) != d {
		return nil, fmt.Errorf("core: fused attention y shape %v, want [%d, %d]", y.Shape(), adj.NumRows, d)
	}
	m := adj.NNZ()
	if alpha.Len() < m || deriv.Len() < m {
		return nil, fmt.Errorf("core: fused attention edge buffers hold %d/%d values, graph has %d edges", alpha.Len(), deriv.Len(), m)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if opts.Target != CPU && opts.Target != GPU {
		return nil, fmt.Errorf("core: unknown target %d", opts.Target)
	}
	k := &FusedAttnKernel{adj: adj, x: x, y: y, alpha: alpha, deriv: deriv, cfg: cfg, d: d}
	k.init("fusedattn", "fused attention", fusedattnMetrics, opts, adj.NumRows, d)
	k.maxInDeg = maxRowDegree(adj)
	threads := max(opts.NumThreads, 1)
	k.chunks = edgeBalancedChunks(adj, numChunksFor(threads, adj.NumRows, m))
	k.states = make(chan *fusedAttnRunState, runStatePoolCap)

	if opts.Target == GPU {
		k.gpu = buildFusedAttnGPU(k.opts)
		k.armGPU()
	}

	// Admission memory estimate: the output surface, the per-edge alpha and
	// deriv writes, and one run state's score scratch, in float32 bytes.
	k.memEstimate = 4 * (int64(adj.NumRows)*int64(d) + 2*int64(m) +
		int64(scratchSlots(opts.NumThreads))*int64(k.maxInDeg))

	k.states <- k.newRunState()
	if k.gpu != nil {
		k.gpu.states <- k.newGPULaunch()
	}
	if tracing {
		telemetry.RecordSpan("fusedattn.build", 0, buildStart, time.Since(buildStart), "rows", int64(adj.NumRows), "nnz", int64(m), 2)
	}
	return k, nil
}

// maxRowDegree returns the widest in-edge set — the score scratch size.
func maxRowDegree(adj *sparse.CSR) int {
	maxDeg := 0
	for r := 0; r < adj.NumRows; r++ {
		maxDeg = max(maxDeg, int(adj.RowPtr[r+1]-adj.RowPtr[r]))
	}
	return maxDeg
}

// OutShape returns the required output tensor shape.
func (k *FusedAttnKernel) OutShape() (rows, cols int) { return k.adj.NumRows, k.d }

// Pattern identifies the fused kernel (it has no UDF to recognize).
func (k *FusedAttnKernel) Pattern() string { return "fusedattn" }

// Describe returns a one-line description of the built kernel.
func (k *FusedAttnKernel) Describe() string {
	return fmt.Sprintf("fusedattn{target:%s rows:%d nnz:%d d:%d maxdeg:%d slope:%g scale:%g}",
		k.opts.Target, k.adj.NumRows, k.adj.NNZ(), k.d, k.maxInDeg, k.cfg.NegSlope, k.cfg.Scale)
}

// Run executes the kernel into out (Run = RunCtx under context.Background()).
func (k *FusedAttnKernel) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the fused forward into out ([NumRows, d]) under ctx and
// the kernel's serving policy; see governed.go. As a side effect a
// successful run fills the alpha and deriv buffers passed at build time.
func (k *FusedAttnKernel) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// fusedAttnScratch is one runner slot's row-local score buffer, sized by
// the maximum in-degree at build time so runs never allocate.
type fusedAttnScratch struct {
	scores []float32
}

// fusedAttnRunState is one execution's worth of reusable engine state.
type fusedAttnRunState struct {
	engineState
	k       *FusedAttnKernel
	scratch []*fusedAttnScratch
}

func (k *FusedAttnKernel) newRunState() *fusedAttnRunState {
	st := &fusedAttnRunState{k: k}
	st.scratch = make([]*fusedAttnScratch, scratchSlots(k.opts.NumThreads))
	for w := range st.scratch {
		st.scratch[w] = &fusedAttnScratch{scores: make([]float32, k.maxInDeg)}
	}
	st.arm(workerSite{kernel: "fusedattn", target: CPU, tile: -1, part: -1}, st.runChunk)
	return st
}

// runChunk processes one edge-balanced row chunk of the forward pass.
func (st *fusedAttnRunState) runChunk(slot, ci int) {
	r := st.k.chunks[ci]
	if slot != 0 {
		st.stolen.Add(1)
	}
	st.edges.Add(uint64(st.k.adj.RowPtr[r.Hi] - st.k.adj.RowPtr[r.Lo]))
	faultinject.Hit(faultinject.SiteFusedAttnCPUWorker, st.rc.done, st.rc.quit)
	sc := st.scratch[slot]
	for lo := r.Lo; lo < r.Hi; lo += cancelChunk {
		if st.rc.stop() {
			return
		}
		st.k.fwdRows(st.out, sc, lo, min(lo+cancelChunk, r.Hi))
	}
	ostride := st.out.RowStride()
	odata := st.out.Data()
	faultinject.CorruptFloats(faultinject.SiteFusedAttnCPUOutput, odata[r.Lo*ostride:r.Hi*ostride])
}

// runCPU executes the single fused row phase on the persistent engine:
// edge-balanced chunks drained from the shared pool, zero per-run
// allocation.
func (k *FusedAttnKernel) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := getState(k.states, k.newRunState)
	defer putState(k.states, st)
	ctx, w := st.begin(ctx, k.opts.Admission, "fusedattn/cpu-engine", out)
	defer w.end()
	tracing := telemetry.TraceActive()
	out.Zero()

	var phaseStart time.Time
	if tracing {
		phaseStart = time.Now()
	}
	pool.Run(&st.job, len(k.chunks), threads)
	if tracing {
		telemetry.RecordSpan("fusedattn.phase", 0, phaseStart, time.Since(phaseStart), "chunks", int64(len(k.chunks)), "", 0, 1)
	}
	return st.finish(ctx)
}

// fwdRows runs the fused forward for destination rows [rlo, rhi), one body
// for every feature width: raw scores two in-edges at a time (dotRows), the
// score transform with the row maximum, expShiftSumF32's one exponential per
// edge, α into the alpha buffer, and scaledSumRows reading α back by edge id
// to fold four neighbours per pass into the output row. out rows must be
// pre-zeroed.
func (k *FusedAttnKernel) fwdRows(out *tensor.Tensor, sc *fusedAttnScratch, rlo, rhi int) {
	adj := k.adj
	d := k.d
	xd, xs := k.x.Data(), k.x.RowStride()
	yd, ys := k.y.Data(), k.y.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	// dScore/dDot by the sign of the dot, index 1 when dot > 0: a table
	// select, not a branch, since a raw score's sign defeats the predictor.
	// The score is dot·deriv, so one select serves both outputs.
	drvTab := [2]float32{k.cfg.Scale * k.cfg.NegSlope, k.cfg.Scale}

	for v := rlo; v < rhi; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		if lo == hi {
			continue // zero in-degree aggregates to zero (DGL's convention)
		}
		cols, eids := adj.ColIdx[lo:hi], adj.EID[lo:hi]
		scores := sc.scores[:hi-lo]
		dotRows(scores, xd, xs, cols, yd[v*ys:v*ys+d])

		// The scores are buffered, so the sum waits for expShiftSumF32: one
		// exponential per edge serves both the sum and the probabilities.
		runMax := negInf32
		for j, dot := range scores {
			var gi uint32
			if dot > 0 {
				gi = 1
			}
			drv := drvTab[gi&1]
			s := dot * drv
			scores[j] = s
			dd[eids[j]] = drv
			if s > runMax {
				runMax = s
			}
		}
		inv := 1 / expShiftSumF32(scores, runMax)
		for j, e := range eids {
			ad[e] = scores[j] * inv
		}
		scaledSumRows(odata[v*ostride:][:d], xd, xs, 0, cols, eids, ad)
	}
}

package dgl

import (
	"context"
	"fmt"
	"math"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/tensor"
)

// FusedAttentionOp computes GAT-style attention aggregation in one fused
// kernel: out[v] = Σ_{u→v} α_e·x[u] with α the per-destination softmax of
// Scale·LeakyReLU(x[u]·y[v]). On the FeatGraph backend this replaces the
// three-pass pipeline (SDDMM dot → edge softmax → weighted SpMM) with
// core.BuildFusedAttention / BuildFusedAttentionBwd — one graph traversal
// per direction instead of three, and no [m,1] intermediate tensors on the
// tape. On the naive backend it materializes messages like every other
// naive op, so backend-differential tests cover the fused math too.
//
// The op owns its alpha/deriv edge buffers: the forward kernel writes them
// and the backward kernel consumes them.
type FusedAttentionOp struct {
	g   *Graph
	d   int
	cfg core.FusedAttnConfig

	// FeatGraph backend state.
	xbuf, ybuf, gbuf   *tensor.Tensor // staged features / upstream gradient
	alphabuf, derivbuf *tensor.Tensor // [m,1] forward→backward edge vectors
	fwd, bwd           core.Kernel

	// Naive backend per-tape state (alpha and deriv in plain slices).
	nAlpha, nDeriv []float32
}

// NewFusedAttention builds the fused attention op with GAT's score
// transform: LeakyReLU slope 0.2, scale 1/√d.
func (g *Graph) NewFusedAttention(d int) (*FusedAttentionOp, error) {
	return g.NewFusedAttentionCfg(d, core.FusedAttnConfig{
		NegSlope: 0.2,
		Scale:    float32(1 / math.Sqrt(float64(d))),
	})
}

// NewFusedAttentionCfg builds the fused attention op with an explicit score
// transform configuration.
func (g *Graph) NewFusedAttentionCfg(d int, cfg core.FusedAttnConfig) (*FusedAttentionOp, error) {
	op := &FusedAttentionOp{g: g, d: d, cfg: cfg}
	if g.cfg.Backend != FeatGraph {
		return op, nil
	}
	n := g.NumVertices()
	op.xbuf = tensor.New(n, d)
	op.ybuf = tensor.New(n, d)
	op.gbuf = tensor.New(n, d)
	op.alphabuf = tensor.New(g.edgeExtent(), 1)
	op.derivbuf = tensor.New(g.edgeExtent(), 1)

	opts := g.coreOptions()
	var err error
	if op.fwd, err = g.built(core.BuildFusedAttention(g.adj, op.xbuf, op.ybuf, op.alphabuf, op.derivbuf, cfg, opts)); err != nil {
		return nil, fmt.Errorf("dgl: fused attention forward: %w", err)
	}
	if op.bwd, err = g.built(core.BuildFusedAttentionBwd(g.adj, g.adjT, op.xbuf, op.ybuf, op.alphabuf, op.derivbuf, op.gbuf, opts)); err != nil {
		return nil, fmt.Errorf("dgl: fused attention backward: %w", err)
	}
	return op, nil
}

// ApplyCtx records the fused attention aggregation on the tape. x carries
// source-vertex features, y destination-vertex features; in GAT both are
// the same Var, and the two gradient streams accumulate onto it. See
// CopyAggOp.ApplyCtx for the ctx/info contract.
func (op *FusedAttentionOp) ApplyCtx(ctx context.Context, tp *autodiff.Tape, x, y *autodiff.Var, info *RunInfo) *autodiff.Var {
	g := op.g
	n := g.NumVertices()
	if g.cfg.Backend == FeatGraph {
		return tp.Custom(
			func() *tensor.Tensor {
				copy(op.xbuf.Data(), x.Value.Data())
				copy(op.ybuf.Data(), y.Value.Data())
				out := tensor.New(n, op.d)
				g.run(ctx, op.fwd, out, info, "fused attention forward")
				return out
			},
			func(dOut *tensor.Tensor) {
				copy(op.gbuf.Data(), dOut.Data())
				grad := tensor.New(2*n, op.d)
				g.run(ctx, op.bwd, grad, info, "fused attention backward")
				// SeedGrad only adds from its argument, so the two halves
				// are wrapped in place rather than copied out.
				gd := grad.Data()
				autodiff.SeedGrad(x, tensor.FromSlice(gd[:n*op.d], n, op.d))
				autodiff.SeedGrad(y, tensor.FromSlice(gd[n*op.d:], n, op.d))
			})
	}
	return op.applyNaive(tp, x, y)
}

// applyNaive is the materialize-then-reduce execution: the per-edge scores,
// probabilities, and messages all become |E|-sized tensors, exactly the
// memory behavior the fused kernel exists to avoid.
func (op *FusedAttentionOp) applyNaive(tp *autodiff.Tape, x, y *autodiff.Var) *autodiff.Var {
	g := op.g
	adj := g.adj
	n, m := g.NumVertices(), g.NumEdges()
	scale, slope := op.cfg.Scale, op.cfg.NegSlope
	if scale == 0 {
		scale = 1
	}
	return tp.Custom(
		func() *tensor.Tensor {
			att := tensor.New(max(m, 1), 1)
			g.naiveEdgeDot(x.Value, y.Value, att)
			op.nAlpha = make([]float32, m)
			op.nDeriv = make([]float32, m)
			ad := att.Data()
			for e := 0; e < m; e++ {
				s, drv := ad[e], scale
				if s <= 0 {
					s *= slope
					drv *= slope
				}
				op.nAlpha[e] = s * scale
				op.nDeriv[e] = drv
			}
			g.MsgBytes += uint64(4 * m)
			// Per-destination softmax over the raw scores.
			g.segParallel(func(v int) {
				lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
				if lo == hi {
					return
				}
				maxv := negInf32
				for p := lo; p < hi; p++ {
					if s := op.nAlpha[adj.EID[p]]; s > maxv {
						maxv = s
					}
				}
				var sum float64
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					op.nAlpha[e] = exp32(op.nAlpha[e] - maxv)
					sum += float64(op.nAlpha[e])
				}
				inv := float32(1 / sum)
				for p := lo; p < hi; p++ {
					op.nAlpha[adj.EID[p]] *= inv
				}
			})
			g.charge(uint64(m) * 10)
			msg := g.naiveGather(adj, x.Value, op.nAlpha, op.d)
			out := tensor.New(n, op.d)
			g.naiveScatterAdd(adj, msg, out, false)
			return out
		},
		func(dOut *tensor.Tensor) {
			// dα_e = dOut[dst]·x[src]; then the softmax Jacobian gives the
			// per-edge score gradient dE.
			dA := tensor.New(max(m, 1), 1)
			g.naiveEdgeDot(x.Value, dOut, dA)
			dE := make([]float32, m)
			dAd := dA.Data()
			g.segParallel(func(v int) {
				lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
				if lo == hi {
					return
				}
				var rowDot float64
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					rowDot += float64(op.nAlpha[e] * dAd[e])
				}
				for p := lo; p < hi; p++ {
					e := adj.EID[p]
					dE[e] = op.nAlpha[e] * (dAd[e] - float32(rowDot)) * op.nDeriv[e]
				}
			})
			g.charge(uint64(m) * 8)
			// dY[v] = Σ dE·x[src], reduced along the forward edges.
			msgY := g.naiveGather(adj, x.Value, dE, op.d)
			dy := tensor.New(n, op.d)
			g.naiveScatterAdd(adj, msgY, dy, false)
			autodiff.SeedGrad(y, dy)
			// dX[u] = Σ_{u→v} (α·dOut[v] + dE·y[v]), reduced along the
			// transpose.
			msg1 := g.naiveGatherByDst(adj, dOut, op.nAlpha, true, op.d)
			msg2 := g.naiveGatherByDst(adj, y.Value, dE, true, op.d)
			m1, m2 := msg1.Data(), msg2.Data()
			for i := range m1 {
				m1[i] += m2[i]
			}
			dx := tensor.New(n, op.d)
			g.naiveScatterAdd(g.adjT, msg1, dx, false)
			autodiff.SeedGrad(x, dx)
		})
}

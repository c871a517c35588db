// Package nn provides the GNN models of the paper's end-to-end evaluation
// (§V-E) — a 2-layer GCN, a 2-layer GraphSage, and a 2-layer GAT — plus the
// Adam optimizer and a small training loop. Models are built over a
// dgl.Graph, so the same model runs on either message-passing backend.
package nn

import (
	"context"
	"fmt"
	"math/rand"

	"featgraph/internal/autodiff"
	"featgraph/internal/dgl"
	"featgraph/internal/tensor"
)

// Model is a GNN whose forward pass produces per-vertex logits.
type Model interface {
	// ForwardCtx runs the model on the tape and returns the logits Var
	// plus the parameter Vars (for the optimizer to read gradients from).
	// Every kernel run the pass issues (forward now, backward when the tape
	// unwinds) executes under ctx, and its statistics land on info (nil
	// collects nothing).
	ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var)
	// Params returns the trainable tensors.
	Params() []*tensor.Tensor
	// Name identifies the architecture.
	Name() string
}

// GCN is a 2-layer graph convolutional network: sum aggregation of linear
// features, ReLU between layers.
type GCN struct {
	g          *dgl.Graph
	w1, w2     *tensor.Tensor
	agg1, agg2 *dgl.CopyAggOp
}

// NewGCN builds a 2-layer GCN with the given dimensions.
func NewGCN(g *dgl.Graph, in, hidden, out int, rng *rand.Rand) (*GCN, error) {
	m := &GCN{g: g, w1: tensor.New(in, hidden), w2: tensor.New(hidden, out)}
	m.w1.FillGlorot(rng)
	m.w2.FillGlorot(rng)
	var err error
	if m.agg1, err = g.NewCopySum(hidden); err != nil {
		return nil, fmt.Errorf("nn: gcn layer 1: %w", err)
	}
	if m.agg2, err = g.NewCopySum(out); err != nil {
		return nil, fmt.Errorf("nn: gcn layer 2: %w", err)
	}
	return m, nil
}

// ForwardCtx computes logits = A·ReLU(A·(X W1)) W2 under a per-call
// context, accumulating kernel stats onto info.
func (m *GCN) ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var) {
	w1 := tp.Param(m.w1)
	w2 := tp.Param(m.w2)
	h := tp.ReLU(m.agg1.ApplyCtx(ctx, tp, m.g.DenseMatMul(tp, tp.Input(x), w1), info))
	logits := m.agg2.ApplyCtx(ctx, tp, m.g.DenseMatMul(tp, h, w2), info)
	return logits, []*autodiff.Var{w1, w2}
}

// Params returns the trainable tensors.
func (m *GCN) Params() []*tensor.Tensor { return []*tensor.Tensor{m.w1, m.w2} }

// Name returns "gcn".
func (m *GCN) Name() string { return "gcn" }

// GraphSage is a 2-layer GraphSage with mean aggregation:
// h = ReLU(X Wself + mean_agg(X) Wneigh).
type GraphSage struct {
	g                  *dgl.Graph
	wSelf1, wNeigh1    *tensor.Tensor
	wSelf2, wNeigh2    *tensor.Tensor
	aggMean1, aggMean2 *dgl.CopyAggOp
}

// NewGraphSage builds a 2-layer GraphSage with the given dimensions.
func NewGraphSage(g *dgl.Graph, in, hidden, out int, rng *rand.Rand) (*GraphSage, error) {
	m := &GraphSage{
		g:       g,
		wSelf1:  tensor.New(in, hidden),
		wNeigh1: tensor.New(in, hidden),
		wSelf2:  tensor.New(hidden, out),
		wNeigh2: tensor.New(hidden, out),
	}
	for _, w := range m.Params() {
		w.FillGlorot(rng)
	}
	var err error
	if m.aggMean1, err = g.NewCopyMean(in); err != nil {
		return nil, fmt.Errorf("nn: sage layer 1: %w", err)
	}
	if m.aggMean2, err = g.NewCopyMean(hidden); err != nil {
		return nil, fmt.Errorf("nn: sage layer 2: %w", err)
	}
	return m, nil
}

// ForwardCtx computes the 2-layer GraphSage logits under a per-call
// context, accumulating kernel stats onto info.
func (m *GraphSage) ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var) {
	ws1, wn1 := tp.Param(m.wSelf1), tp.Param(m.wNeigh1)
	ws2, wn2 := tp.Param(m.wSelf2), tp.Param(m.wNeigh2)
	xv := tp.Input(x)
	h := tp.ReLU(tp.Add(m.g.DenseMatMul(tp, xv, ws1), m.g.DenseMatMul(tp, m.aggMean1.ApplyCtx(ctx, tp, xv, info), wn1)))
	logits := tp.Add(m.g.DenseMatMul(tp, h, ws2), m.g.DenseMatMul(tp, m.aggMean2.ApplyCtx(ctx, tp, h, info), wn2))
	return logits, []*autodiff.Var{ws1, wn1, ws2, wn2}
}

// Params returns the trainable tensors.
func (m *GraphSage) Params() []*tensor.Tensor {
	return []*tensor.Tensor{m.wSelf1, m.wNeigh1, m.wSelf2, m.wNeigh2}
}

// Name returns "graphsage".
func (m *GraphSage) Name() string { return "graphsage" }

// GAT is a 2-layer graph attention network with dot-product attention
// (the formulation the paper evaluates): per layer,
// z = X W; e = LeakyReLU(z_src · z_dst); α = edge_softmax(e);
// h = ReLU(Σ α z_src).
//
// Each layer's attention runs as one fused kernel: SDDMM dot → streaming
// edge softmax → weighted SpMM in a single traversal, with the 1/√d scale
// and LeakyReLU folded into the score transform.
type GAT struct {
	g              *dgl.Graph
	w1, w2         *tensor.Tensor
	fused1, fused2 *dgl.FusedAttentionOp
}

// NewGAT builds a 2-layer dot-product-attention GAT.
func NewGAT(g *dgl.Graph, in, hidden, out int, rng *rand.Rand) (*GAT, error) {
	m := &GAT{g: g, w1: tensor.New(in, hidden), w2: tensor.New(hidden, out)}
	m.w1.FillGlorot(rng)
	m.w2.FillGlorot(rng)
	var err error
	if m.fused1, err = g.NewFusedAttention(hidden); err != nil {
		return nil, fmt.Errorf("nn: gat layer 1 fused attention: %w", err)
	}
	if m.fused2, err = g.NewFusedAttention(out); err != nil {
		return nil, fmt.Errorf("nn: gat layer 2 fused attention: %w", err)
	}
	return m, nil
}

func (m *GAT) layer(ctx context.Context, tp *autodiff.Tape, x, w *autodiff.Var, fused *dgl.FusedAttentionOp, info *dgl.RunInfo) *autodiff.Var {
	z := m.g.DenseMatMul(tp, x, w)
	return fused.ApplyCtx(ctx, tp, z, z, info)
}

// ForwardCtx computes the 2-layer GAT logits under a per-call context,
// accumulating kernel stats onto info.
func (m *GAT) ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var) {
	w1, w2 := tp.Param(m.w1), tp.Param(m.w2)
	h := tp.ReLU(m.layer(ctx, tp, tp.Input(x), w1, m.fused1, info))
	logits := m.layer(ctx, tp, h, w2, m.fused2, info)
	return logits, []*autodiff.Var{w1, w2}
}

// Params returns the trainable tensors.
func (m *GAT) Params() []*tensor.Tensor { return []*tensor.Tensor{m.w1, m.w2} }

// Name returns "gat".
func (m *GAT) Name() string { return "gat" }

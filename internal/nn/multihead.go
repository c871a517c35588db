package nn

import (
	"context"
	"fmt"
	"math/rand"

	"featgraph/internal/autodiff"
	"featgraph/internal/dgl"
	"featgraph/internal/tensor"
)

// MultiHeadGAT is a 2-layer GAT with h attention heads per layer — the
// standard GAT formulation, and the multi-head edge computation the
// paper's Figure 4b expresses. Layer 1 concatenates head outputs; layer 2
// averages them (the original GAT's output-layer convention).
type MultiHeadGAT struct {
	g      *dgl.Graph
	heads  int
	w1, w2 *tensor.Tensor

	// One fused attention op per head per layer.
	fused1, fused2 []*dgl.FusedAttentionOp
}

// NewMultiHeadGAT builds a 2-layer GAT with the given head count. hidden
// is the per-head width of layer 1; layer 2 uses one set of out-width
// heads whose results are averaged.
func NewMultiHeadGAT(g *dgl.Graph, in, hidden, out, heads int, rng *rand.Rand) (*MultiHeadGAT, error) {
	if heads < 1 {
		return nil, fmt.Errorf("nn: multi-head GAT needs >= 1 head, got %d", heads)
	}
	m := &MultiHeadGAT{
		g:     g,
		heads: heads,
		w1:    tensor.New(in, heads*hidden),
		w2:    tensor.New(heads*hidden, heads*out),
	}
	m.w1.FillGlorot(rng)
	m.w2.FillGlorot(rng)
	for h := 0; h < heads; h++ {
		f1, err := g.NewFusedAttention(hidden)
		if err != nil {
			return nil, fmt.Errorf("nn: layer 1 head %d fused attention: %w", h, err)
		}
		f2, err := g.NewFusedAttention(out)
		if err != nil {
			return nil, fmt.Errorf("nn: layer 2 head %d fused attention: %w", h, err)
		}
		m.fused1 = append(m.fused1, f1)
		m.fused2 = append(m.fused2, f2)
	}
	return m, nil
}

// headOutputs runs every head of one layer on its feature slice.
func (m *MultiHeadGAT) headOutputs(ctx context.Context, tp *autodiff.Tape, x, w *autodiff.Var, fused []*dgl.FusedAttentionOp, info *dgl.RunInfo) []*autodiff.Var {
	z := m.g.DenseMatMul(tp, x, w)
	zs := tp.SplitCols(z, m.heads)
	outs := make([]*autodiff.Var, m.heads)
	for h := range outs {
		outs[h] = fused[h].ApplyCtx(ctx, tp, zs[h], zs[h], info)
	}
	return outs
}

// ForwardCtx computes the multi-head GAT logits under a per-call context,
// accumulating kernel stats onto info: layer 1 concatenates heads, layer 2
// averages them.
func (m *MultiHeadGAT) ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var) {
	w1, w2 := tp.Param(m.w1), tp.Param(m.w2)
	h1 := tp.ReLU(tp.ConcatCols(m.headOutputs(ctx, tp, tp.Input(x), w1, m.fused1, info)))
	heads2 := m.headOutputs(ctx, tp, h1, w2, m.fused2, info)
	sum := heads2[0]
	for _, hv := range heads2[1:] {
		sum = tp.Add(sum, hv)
	}
	logits := tp.Scale(sum, 1/float32(m.heads))
	return logits, []*autodiff.Var{w1, w2}
}

// Params returns the trainable tensors.
func (m *MultiHeadGAT) Params() []*tensor.Tensor { return []*tensor.Tensor{m.w1, m.w2} }

// Name returns "gat-multihead".
func (m *MultiHeadGAT) Name() string { return "gat-multihead" }

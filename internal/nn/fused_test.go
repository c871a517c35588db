package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/tensor"
)

// forwarder is the part of Model gatEpoch drives.
type forwarder interface {
	ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var)
}

// gatEpoch runs one forward+backward over a GAT-style model and returns the
// logits plus the parameter gradients.
func gatEpoch(t *testing.T, m forwarder, x *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	tp := autodiff.NewTape()
	var info dgl.RunInfo
	logits, params := m.ForwardCtx(context.Background(), tp, x, &info)
	// Scalar sum-loss over the logits.
	n, d := logits.Value.Dim(0), logits.Value.Dim(1)
	l := tensor.New(1, n)
	l.Fill(1)
	r := tensor.New(d, 1)
	r.Fill(1)
	loss := tp.MatMul(tp.MatMul(tp.Input(l), logits), tp.Input(r))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		grads[i] = p.Grad()
	}
	return logits.Value, grads
}

// threePassGAT is the reference the fused attention kernel replaced: per
// head, SDDMM dot → LeakyReLU(0.2) → 1/√d scale → edge softmax → weighted
// SpMM as separate ops. It mirrors MultiHeadGAT's layer structure (heads
// concatenated after layer 1, averaged after layer 2), which with one head
// is GAT's, and reads the weights of the fused model it is compared with.
type threePassGAT struct {
	g     *dgl.Graph
	heads int
	w     [2]*tensor.Tensor
	dots  [2][]*dgl.DotOp
	wsums [2][]*dgl.WeightedSumOp
}

func newThreePassGAT(t *testing.T, g *dgl.Graph, fused Model, heads int) *threePassGAT {
	t.Helper()
	p := fused.Params()
	m := &threePassGAT{g: g, heads: heads, w: [2]*tensor.Tensor{p[0], p[1]}}
	for l, w := range m.w {
		d := w.Dim(1) / heads
		for h := 0; h < heads; h++ {
			dot, err := g.NewDot(d)
			if err != nil {
				t.Fatal(err)
			}
			wsum, err := g.NewWeightedSum(d)
			if err != nil {
				t.Fatal(err)
			}
			m.dots[l] = append(m.dots[l], dot)
			m.wsums[l] = append(m.wsums[l], wsum)
		}
	}
	return m
}

// layer runs every head of layer l on its column slice of x·w.
func (m *threePassGAT) layer(ctx context.Context, tp *autodiff.Tape, l int, x, w *autodiff.Var, info *dgl.RunInfo) []*autodiff.Var {
	zs := tp.SplitCols(m.g.DenseMatMul(tp, x, w), m.heads)
	outs := make([]*autodiff.Var, m.heads)
	for h, z := range zs {
		scale := float32(1 / math.Sqrt(float64(z.Value.Dim(1))))
		att := tp.Scale(tp.LeakyReLU(m.dots[l][h].ApplyCtx(ctx, tp, z, z, info), 0.2), scale)
		outs[h] = m.wsums[l][h].ApplyCtx(ctx, tp, z, m.g.EdgeSoftmax(tp, att), info)
	}
	return outs
}

func (m *threePassGAT) ForwardCtx(ctx context.Context, tp *autodiff.Tape, x *tensor.Tensor, info *dgl.RunInfo) (*autodiff.Var, []*autodiff.Var) {
	w1, w2 := tp.Param(m.w[0]), tp.Param(m.w[1])
	h := tp.ReLU(tp.ConcatCols(m.layer(ctx, tp, 0, tp.Input(x), w1, info)))
	heads2 := m.layer(ctx, tp, 1, h, w2, info)
	sum := heads2[0]
	for _, hv := range heads2[1:] {
		sum = tp.Add(sum, hv)
	}
	return tp.Scale(sum, 1/float32(m.heads)), []*autodiff.Var{w1, w2}
}

// TestGATFusedMatchesThreePass pins the model-level contract of fused
// attention: single-head GAT and 4-head MultiHeadGAT produce the same
// logits and weight gradients as the three-pass pipeline on identical
// weights.
func TestGATFusedMatchesThreePass(t *testing.T) {
	ds := dataset(t, 7)
	x := tensor.New(ds.Adj.NumRows, 16)
	x.FillUniform(rand.New(rand.NewSource(8)), -1, 1)
	const tol = 1e-3

	g, err := dgl.New(ds.Adj, dgl.Config{Backend: dgl.FeatGraph, Target: core.CPU, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, heads := range []int{1, 4} {
		rng := rand.New(rand.NewSource(99))
		var fused Model
		if heads == 1 {
			fused, err = NewGAT(g, 16, 16, ds.NumClasses, rng)
		} else {
			fused, err = NewMultiHeadGAT(g, 16, 8, ds.NumClasses, heads, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		logitsF, gradsF := gatEpoch(t, fused, x)
		logitsR, gradsR := gatEpoch(t, newThreePassGAT(t, g, fused, heads), x)
		if !logitsF.AllClose(logitsR, tol) {
			t.Errorf("heads=%d: fused vs three-pass logits max diff %v", heads, logitsF.MaxAbsDiff(logitsR))
		}
		for i := range gradsF {
			if gradsF[i] == nil || gradsR[i] == nil {
				t.Fatalf("heads=%d: param %d missing grad", heads, i)
			}
			if !gradsF[i].AllClose(gradsR[i], tol) {
				t.Errorf("heads=%d: fused vs three-pass grad %d max diff %v", heads, i, gradsF[i].MaxAbsDiff(gradsR[i]))
			}
		}
	}
}

// Package autodiff is a tape-based reverse-mode automatic differentiation
// engine over dense tensors, the training substrate for the end-to-end
// experiments (Table VI). It provides the dense operations GNN models need
// (matrix products, elementwise nonlinearities, masked softmax
// cross-entropy) plus a Custom op through which the mini-DGL framework
// plugs in graph operations — whose adjoints are exactly the paper's
// observation that the gradient of SpMM follows the SDDMM pattern and vice
// versa (§II-A).
package autodiff

import (
	"fmt"
	"math"

	"featgraph/internal/tensor"
)

// Var is a node in the computation graph: a value and, after Backward, its
// gradient. Gradients are accumulated, so a Var used twice receives the sum
// of both paths' contributions.
type Var struct {
	Value    *tensor.Tensor
	grad     *tensor.Tensor
	constant bool // from Input: MatMul computes no gradient for it
}

// Grad returns the accumulated gradient, or nil if none was propagated.
func (v *Var) Grad() *tensor.Tensor { return v.grad }

// ensureGrad allocates the gradient buffer on first use.
func (v *Var) ensureGrad() *tensor.Tensor {
	if v.grad == nil {
		v.grad = tensor.New(v.Value.Shape()...)
	}
	return v.grad
}

// Tape records operations for reverse-mode differentiation. A tape is
// single-use per forward/backward pass; parameters persist across tapes by
// re-binding their tensors with Param.
type Tape struct {
	backs []func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Param wraps a trainable tensor. Its gradient buffer survives on the
// returned Var for the optimizer to consume.
func (t *Tape) Param(v *tensor.Tensor) *Var { return &Var{Value: v} }

// Input wraps a constant (non-trained) tensor. Products skip its gradient,
// so its Grad stays nil unless another op propagates into it.
func (t *Tape) Input(v *tensor.Tensor) *Var { return &Var{Value: v, constant: true} }

func (t *Tape) record(back func()) { t.backs = append(t.backs, back) }

// Backward runs reverse accumulation from loss, which must be scalar
// (shape [1] or [1,1]).
func (t *Tape) Backward(loss *Var) error {
	if loss.Value.Len() != 1 {
		return fmt.Errorf("autodiff: Backward needs a scalar loss, got shape %v", loss.Value.Shape())
	}
	loss.ensureGrad().Data()[0] = 1
	for i := len(t.backs) - 1; i >= 0; i-- {
		t.backs[i]()
	}
	return nil
}

// MatMul returns a × b with a [m,k], b [k,n].
func (t *Tape) MatMul(a, b *Var) *Var {
	m, n := a.Value.Dim(0), b.Value.Dim(1)
	out := &Var{Value: tensor.MatMul(tensor.New(m, n), a.Value, b.Value)}
	t.record(func() {
		if out.grad == nil {
			return
		}
		// dA += dOut × bᵀ ; dB += aᵀ × dOut
		a.accumulate(func(dst *tensor.Tensor) *tensor.Tensor { return tensor.MatMulT(dst, out.grad, b.Value) })
		b.accumulate(func(dst *tensor.Tensor) *tensor.Tensor { return tensor.TMatMul(dst, a.Value, out.grad) })
	})
	return out
}

// accumulate adds the product prod writes into v's gradient: straight into
// a fresh buffer when v has none yet, and not at all for a constant.
func (v *Var) accumulate(prod func(dst *tensor.Tensor) *tensor.Tensor) {
	switch {
	case v.constant:
	case v.grad == nil:
		v.grad = prod(tensor.New(v.Value.Shape()...))
	default:
		tensor.Add(v.grad, v.grad, prod(tensor.New(v.Value.Shape()...)))
	}
}

// Add returns a + b elementwise (same shapes).
func (t *Tape) Add(a, b *Var) *Var {
	out := &Var{Value: tensor.Add(tensor.New(a.Value.Shape()...), a.Value, b.Value)}
	t.record(func() {
		if out.grad == nil {
			return
		}
		tensor.Add(a.ensureGrad(), a.grad, out.grad)
		tensor.Add(b.ensureGrad(), b.grad, out.grad)
	})
	return out
}

// AddRowVec returns a + bias broadcast over rows; a is [n,d], bias [d].
func (t *Tape) AddRowVec(a, bias *Var) *Var {
	n, d := a.Value.Dim(0), a.Value.Dim(1)
	if bias.Value.Len() != d {
		panic(fmt.Sprintf("autodiff: AddRowVec bias length %d, want %d", bias.Value.Len(), d))
	}
	out := &Var{Value: tensor.New(n, d)}
	bd := bias.Value.Data()
	for r := 0; r < n; r++ {
		arow := a.Value.Row(r)
		orow := out.Value.Row(r)
		for f := range orow {
			orow[f] = arow[f] + bd[f]
		}
	}
	t.record(func() {
		if out.grad == nil {
			return
		}
		tensor.Add(a.ensureGrad(), a.grad, out.grad)
		bg := bias.ensureGrad().Data()
		for r := 0; r < n; r++ {
			grow := out.grad.Row(r)
			for f := range grow {
				bg[f] += grow[f]
			}
		}
	})
	return out
}

// ReLU returns max(a, 0).
func (t *Tape) ReLU(a *Var) *Var {
	out := &Var{Value: tensor.ReLU(tensor.New(a.Value.Shape()...), a.Value)}
	t.record(func() {
		if out.grad == nil {
			return
		}
		ag := a.ensureGrad().Data()
		av := a.Value.Data()
		og := out.grad.Data()
		for i := range ag {
			if av[i] > 0 {
				ag[i] += og[i]
			}
		}
	})
	return out
}

// LeakyReLU returns a where a > 0, alpha*a otherwise (GAT's attention
// nonlinearity).
func (t *Tape) LeakyReLU(a *Var, alpha float32) *Var {
	out := &Var{Value: tensor.New(a.Value.Shape()...)}
	av, ov := a.Value.Data(), out.Value.Data()
	for i := range av {
		if av[i] > 0 {
			ov[i] = av[i]
		} else {
			ov[i] = alpha * av[i]
		}
	}
	t.record(func() {
		if out.grad == nil {
			return
		}
		ag := a.ensureGrad().Data()
		og := out.grad.Data()
		for i := range ag {
			if av[i] > 0 {
				ag[i] += og[i]
			} else {
				ag[i] += alpha * og[i]
			}
		}
	})
	return out
}

// Scale returns a * s.
func (t *Tape) Scale(a *Var, s float32) *Var {
	out := &Var{Value: tensor.Scale(tensor.New(a.Value.Shape()...), a.Value, s)}
	t.record(func() {
		if out.grad == nil {
			return
		}
		tensor.AXPY(a.ensureGrad(), out.grad, s)
	})
	return out
}

// Custom records a user-defined differentiable operation. forward computes
// the output value; backward receives the output gradient and must
// accumulate into the inputs' gradient buffers (obtained with
// EnsureGrad). backward is skipped if no gradient reached the output.
func (t *Tape) Custom(forward func() *tensor.Tensor, backward func(dOut *tensor.Tensor)) *Var {
	out := &Var{Value: forward()}
	t.record(func() {
		if out.grad == nil {
			return
		}
		backward(out.grad)
	})
	return out
}

// EnsureGrad exposes gradient-buffer allocation for Custom ops.
func EnsureGrad(v *Var) *tensor.Tensor { return v.ensureGrad() }

// SeedGrad adds g into v's gradient, for Custom ops composed of dense
// pieces.
func SeedGrad(v *Var, g *tensor.Tensor) { tensor.Add(v.ensureGrad(), v.grad, g) }

// CrossEntropyLoss computes masked mean softmax cross-entropy:
// loss = mean over masked rows of -log softmax(logits)[label]. Returns a
// scalar Var. mask may be nil for "all rows".
func (t *Tape) CrossEntropyLoss(logits *Var, labels []int, mask []bool) *Var {
	n, c := logits.Value.Dim(0), logits.Value.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("autodiff: %d labels for %d rows", len(labels), n))
	}
	// Softmax probabilities are needed by both passes; compute once.
	probs := tensor.New(n, c)
	count := 0
	loss := 0.0
	for r := 0; r < n; r++ {
		if mask != nil && !mask[r] {
			continue
		}
		count++
		row := logits.Value.Row(r)
		prow := probs.Row(r)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for f, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[f] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for f := range prow {
			prow[f] *= inv
		}
		p := float64(prow[labels[r]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	if count == 0 {
		panic("autodiff: empty mask in CrossEntropyLoss")
	}
	out := &Var{Value: tensor.FromSlice([]float32{float32(loss / float64(count))}, 1)}
	t.record(func() {
		if out.grad == nil {
			return
		}
		scale := out.grad.Data()[0] / float32(count)
		lg := logits.ensureGrad()
		for r := 0; r < n; r++ {
			if mask != nil && !mask[r] {
				continue
			}
			prow := probs.Row(r)
			grow := lg.Row(r)
			for f := range grow {
				g := prow[f]
				if f == labels[r] {
					g -= 1
				}
				grow[f] += scale * g
			}
		}
	})
	return out
}

// Accuracy returns the fraction of masked rows whose argmax equals the
// label. Not differentiable; a plain helper.
func Accuracy(logits *tensor.Tensor, labels []int, mask []bool) float64 {
	n := logits.Dim(0)
	correct, count := 0, 0
	for r := 0; r < n; r++ {
		if mask != nil && !mask[r] {
			continue
		}
		count++
		if logits.ArgmaxRow(r) == labels[r] {
			correct++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(correct) / float64(count)
}

// SplitCols splits an [n, h*d] matrix into h column blocks of width d,
// returning one Var per block. Used by multi-head attention to address
// per-head feature slices contiguously.
func (t *Tape) SplitCols(a *Var, h int) []*Var {
	n, total := a.Value.Dim(0), a.Value.Dim(1)
	if h <= 0 || total%h != 0 {
		panic(fmt.Sprintf("autodiff: SplitCols(%d) does not divide width %d", h, total))
	}
	d := total / h
	outs := make([]*Var, h)
	for head := 0; head < h; head++ {
		part := tensor.New(n, d)
		for r := 0; r < n; r++ {
			copy(part.Row(r), a.Value.Row(r)[head*d:(head+1)*d])
		}
		outs[head] = &Var{Value: part}
	}
	// The backward closure keeps a private copy: callers commonly
	// overwrite the returned slice's entries with derived Vars, which
	// must not redirect where the gradients are read from.
	priv := append([]*Var(nil), outs...)
	t.record(func() {
		var any bool
		for _, o := range priv {
			if o.grad != nil {
				any = true
			}
		}
		if !any {
			return
		}
		ag := a.ensureGrad()
		for head, o := range priv {
			if o.grad == nil {
				continue
			}
			for r := 0; r < n; r++ {
				arow := ag.Row(r)[head*d : (head+1)*d]
				grow := o.grad.Row(r)
				for f := range arow {
					arow[f] += grow[f]
				}
			}
		}
	})
	return outs
}

// ConcatCols concatenates same-height matrices along columns, the inverse
// of SplitCols.
func (t *Tape) ConcatCols(parts []*Var) *Var {
	if len(parts) == 0 {
		panic("autodiff: ConcatCols of nothing")
	}
	parts = append([]*Var(nil), parts...) // guard against caller mutation
	n := parts[0].Value.Dim(0)
	total := 0
	for _, p := range parts {
		if p.Value.Dim(0) != n {
			panic("autodiff: ConcatCols height mismatch")
		}
		total += p.Value.Dim(1)
	}
	out := &Var{Value: tensor.New(n, total)}
	off := 0
	for _, p := range parts {
		d := p.Value.Dim(1)
		for r := 0; r < n; r++ {
			copy(out.Value.Row(r)[off:off+d], p.Value.Row(r))
		}
		off += d
	}
	t.record(func() {
		if out.grad == nil {
			return
		}
		off := 0
		for _, p := range parts {
			d := p.Value.Dim(1)
			pg := p.ensureGrad()
			for r := 0; r < n; r++ {
				prow := pg.Row(r)
				orow := out.grad.Row(r)[off : off+d]
				for f := range prow {
					prow[f] += orow[f]
				}
			}
			off += d
		}
	})
	return out
}

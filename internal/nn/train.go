package nn

import (
	"context"
	"fmt"
	"math"

	"featgraph/internal/autodiff"
	"featgraph/internal/dgl"
	"featgraph/internal/tensor"
)

// Adam is the Adam optimizer with per-tensor first/second moment state.
type Adam struct {
	LR    float32
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m map[*tensor.Tensor]*tensor.Tensor
	v map[*tensor.Tensor]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with the standard betas.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*tensor.Tensor]*tensor.Tensor),
		v: make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// Step applies one Adam update using the gradients accumulated on vars.
// Vars without gradients are skipped.
func (a *Adam) Step(vars []*autodiff.Var) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, v := range vars {
		grad := v.Grad()
		if grad == nil {
			continue
		}
		p := v.Value
		mt, ok := a.m[p]
		if !ok {
			mt = tensor.New(p.Shape()...)
			a.m[p] = mt
			a.v[p] = tensor.New(p.Shape()...)
		}
		vt := a.v[p]
		pd, gd, md, vd := p.Data(), grad.Data(), mt.Data(), vt.Data()
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for i := range pd {
			g := gd[i]
			md[i] = b1*md[i] + (1-b1)*g
			vd[i] = b2*vd[i] + (1-b2)*g*g
			mhat := float64(md[i]) / bc1
			vhat := float64(vd[i]) / bc2
			pd[i] -= a.LR * float32(mhat/(math.Sqrt(vhat)+a.Eps))
		}
	}
}

// AdamState is the optimizer's serializable state for an ordered parameter
// list: the step counter and the first/second moments parallel to params.
type AdamState struct {
	T    int
	M, V []*tensor.Tensor
}

// State exports the optimizer state for params, in order. Parameters the
// optimizer has not touched yet get zero moments, so a checkpoint taken
// before the first Step is still well-formed.
func (a *Adam) State(params []*tensor.Tensor) AdamState {
	st := AdamState{T: a.t, M: make([]*tensor.Tensor, len(params)), V: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		if mt, ok := a.m[p]; ok {
			st.M[i] = mt.Clone()
			st.V[i] = a.v[p].Clone()
		} else {
			st.M[i] = tensor.New(p.Shape()...)
			st.V[i] = tensor.New(p.Shape()...)
		}
	}
	return st
}

// SetState installs previously exported state for params, in order. Shapes
// must match each parameter exactly; moments are copied, not aliased, so
// the caller's state object stays independent.
func (a *Adam) SetState(params []*tensor.Tensor, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moments for %d params", len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if !st.M[i].SameShape(p) || !st.V[i].SameShape(p) {
			return fmt.Errorf("nn: adam moment %d shape %v does not match param shape %v", i, st.M[i].Shape(), p.Shape())
		}
	}
	a.t = st.T
	for i, p := range params {
		a.m[p] = st.M[i].Clone()
		a.v[p] = st.V[i].Clone()
	}
	return nil
}

// TrainEpochCtx runs one full-graph epoch: forward, masked cross-entropy,
// backward, Adam step. Returns the training loss. Every kernel run of the
// epoch executes under ctx, and the returned RunInfo reports the epoch's
// kernel launches, simulated GPU cycles, fallback attribution, admission
// queueing and retries. A serving-policy abort inside an op — cancellation,
// deadline expiry, load shedding, a watchdog stall — is returned as the
// error (a *dgl.AbortError) instead of panicking; genuine programming-error
// panics still propagate.
func TrainEpochCtx(ctx context.Context, m Model, x *tensor.Tensor, labels []int, mask []bool, opt *Adam) (loss float64, info dgl.RunInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(*dgl.AbortError); ok {
				loss, err = 0, ae
				return
			}
			panic(r)
		}
	}()
	tp := autodiff.NewTape()
	logits, params := m.ForwardCtx(ctx, tp, x, &info)
	lossVar := tp.CrossEntropyLoss(logits, labels, mask)
	if err := tp.Backward(lossVar); err != nil {
		return 0, info, err
	}
	opt.Step(params)
	return float64(lossVar.Value.Data()[0]), info, nil
}

// InferCtx runs a forward pass under ctx and returns the logits tensor
// plus the pass's RunInfo. A serving-policy abort inside an op is returned
// as a *dgl.AbortError.
func InferCtx(ctx context.Context, m Model, x *tensor.Tensor) (out *tensor.Tensor, info dgl.RunInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(*dgl.AbortError); ok {
				out, err = nil, ae
				return
			}
			panic(r)
		}
	}()
	tp := autodiff.NewTape()
	logits, _ := m.ForwardCtx(ctx, tp, x, &info)
	return logits.Value, info, nil
}

// EvaluateCtx returns classification accuracy over the masked vertices,
// running the forward pass under ctx.
func EvaluateCtx(ctx context.Context, m Model, x *tensor.Tensor, labels []int, mask []bool) (float64, error) {
	logits, _, err := InferCtx(ctx, m, x)
	if err != nil {
		return 0, err
	}
	return autodiff.Accuracy(logits, labels, mask), nil
}

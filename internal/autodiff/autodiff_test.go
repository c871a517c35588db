package autodiff

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"featgraph/internal/tensor"
)

// checkGrads verifies analytic gradients of a scalar-valued computation
// against central finite differences for every parameter tensor.
func checkGrads(t *testing.T, name string, params []*tensor.Tensor, build func(tp *Tape, vars []*Var) *Var) {
	t.Helper()
	tape := NewTape()
	vars := make([]*Var, len(params))
	for i, p := range params {
		vars[i] = tape.Param(p)
	}
	loss := build(tape, vars)
	if err := tape.Backward(loss); err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	const eps = 1e-2
	for pi, p := range params {
		grad := vars[pi].Grad()
		if grad == nil {
			t.Fatalf("%s: param %d has no gradient", name, pi)
		}
		data := p.Data()
		for i := 0; i < len(data); i += max(1, len(data)/7) { // sample entries
			orig := data[i]
			data[i] = orig + eps
			plus := evalLoss(params, build)
			data[i] = orig - eps
			minus := evalLoss(params, build)
			data[i] = orig
			fd := (plus - minus) / (2 * eps)
			an := float64(grad.Data()[i])
			if math.Abs(fd-an) > 2e-2*(1+math.Abs(fd)) {
				t.Errorf("%s: param %d elem %d: analytic %.5f vs fd %.5f", name, pi, i, an, fd)
			}
		}
	}
}

func evalLoss(params []*tensor.Tensor, build func(tp *Tape, vars []*Var) *Var) float64 {
	tape := NewTape()
	vars := make([]*Var, len(params))
	for i, p := range params {
		vars[i] = tape.Param(p)
	}
	return float64(build(tape, vars).Value.Data()[0])
}

// sumAll reduces a Var to a scalar by multiplying with ones: [1,n]×[n,d]×[d,1].
func sumAll(tp *Tape, v *Var) *Var {
	n, d := v.Value.Dim(0), v.Value.Dim(1)
	onesL := tp.Input(onesT(1, n))
	onesR := tp.Input(onesT(d, 1))
	return tp.MatMul(tp.MatMul(onesL, v), onesR)
}

func onesT(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.Fill(1)
	return x
}

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillUniform(rng, -1, 1)
	return x
}

// randTAwayFromZero returns values in ±[0.1, 1.1] so finite differences
// never straddle a ReLU/LeakyReLU kink.
func randTAwayFromZero(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := randT(rng, shape...)
	d := x.Data()
	for i, v := range d {
		if v >= 0 {
			d[i] = v + 0.1
		} else {
			d[i] = v - 0.1
		}
	}
	return x
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randT(rng, 3, 4)
	b := randT(rng, 4, 2)
	checkGrads(t, "matmul", []*tensor.Tensor{a, b}, func(tp *Tape, vars []*Var) *Var {
		return sumAll(tp, tp.MatMul(vars[0], vars[1]))
	})
}

// TestMatMulSkipsConstantOperand: an Input operand gets no gradient, the
// other operand's gradient is bitwise what the temporary-plus-Add path gave,
// and wrapping the input as a Param instead changes no Param's gradient.
func TestMatMulSkipsConstantOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, w1, w2 := randT(rng, 50, 6), randT(rng, 6, 5), randT(rng, 5, 3)
	bits := func(g *tensor.Tensor) []uint32 {
		out := make([]uint32, g.Len())
		for i, v := range g.Data() {
			out[i] = math.Float32bits(v)
		}
		return out
	}
	run := func(wrap func(*Tape, *tensor.Tensor) *Var, depth int) (xv *Var, grads [][]uint32) {
		tp := NewTape()
		xv = wrap(tp, x)
		ps := []*Var{tp.Param(w1), tp.Param(w2)}[:depth]
		h := tp.MatMul(xv, ps[0])
		if depth == 2 {
			h = tp.MatMul(tp.ReLU(h), ps[1])
		}
		if err := tp.Backward(sumAll(tp, h)); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			grads = append(grads, bits(p.Grad()))
		}
		return xv, grads
	}

	in, got := run((*Tape).Input, 1)
	if in.Grad() != nil {
		t.Fatal("Input operand of MatMul received a gradient")
	}
	// d(sum)/dh is exactly ones, so the parent's dW1 = 0 + Xᵀ·1.
	parent := tensor.TMatMul(tensor.New(6, 5), x, onesT(50, 5))
	parent = tensor.Add(tensor.New(6, 5), tensor.New(6, 5), parent)
	if !slices.Equal(got[0], bits(parent)) {
		t.Fatal("dW1 differs bitwise from the temporary-plus-Add path")
	}

	in, got = run((*Tape).Input, 2)
	par, want := run((*Tape).Param, 2)
	if in.Grad() != nil || par.Grad() == nil {
		t.Fatalf("Input grad %v, Param grad %v: want nil and non-nil", in.Grad(), par.Grad())
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("W%d gradient depends on whether X is an Input or a Param", i+1)
		}
	}
}

func TestAddAndScaleGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randT(rng, 3, 3)
	b := randT(rng, 3, 3)
	checkGrads(t, "add+scale", []*tensor.Tensor{a, b}, func(tp *Tape, vars []*Var) *Var {
		return sumAll(tp, tp.Scale(tp.Add(vars[0], vars[1]), 2.5))
	})
}

func TestAddRowVecGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randT(rng, 4, 3)
	bias := randT(rng, 3)
	checkGrads(t, "addrowvec", []*tensor.Tensor{a, bias}, func(tp *Tape, vars []*Var) *Var {
		return sumAll(tp, tp.AddRowVec(vars[0], vars[1]))
	})
}

func TestReLUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTAwayFromZero(rng, 4, 4)
	checkGrads(t, "relu", []*tensor.Tensor{a}, func(tp *Tape, vars []*Var) *Var {
		return sumAll(tp, tp.ReLU(vars[0]))
	})
}

func TestLeakyReLUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTAwayFromZero(rng, 4, 4)
	checkGrads(t, "leakyrelu", []*tensor.Tensor{a}, func(tp *Tape, vars []*Var) *Var {
		return sumAll(tp, tp.LeakyReLU(vars[0], 0.2))
	})
}

func TestCrossEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := randT(rng, 6, 3)
	labels := []int{0, 1, 2, 0, 1, 2}
	mask := []bool{true, true, false, true, true, true}
	checkGrads(t, "xent", []*tensor.Tensor{logits}, func(tp *Tape, vars []*Var) *Var {
		return tp.CrossEntropyLoss(vars[0], labels, mask)
	})
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// y = a + a ⇒ dy/da = 2 at every element.
	a := onesT(2, 2)
	tape := NewTape()
	va := tape.Param(a)
	loss := sumAll(tape, tape.Add(va, va))
	if err := tape.Backward(loss); err != nil {
		t.Fatal(err)
	}
	for _, g := range va.Grad().Data() {
		if g != 2 {
			t.Fatalf("grad = %v, want 2", va.Grad().Data())
		}
	}
}

func TestCustomOpGrad(t *testing.T) {
	// Custom square: y = x*x, dy/dx = 2x.
	rng := rand.New(rand.NewSource(7))
	x := randT(rng, 3, 3)
	checkGrads(t, "custom-square", []*tensor.Tensor{x}, func(tp *Tape, vars []*Var) *Var {
		v := vars[0]
		sq := tp.Custom(
			func() *tensor.Tensor {
				return tensor.Mul(tensor.New(v.Value.Shape()...), v.Value, v.Value)
			},
			func(dOut *tensor.Tensor) {
				g := tensor.Mul(tensor.New(v.Value.Shape()...), dOut, v.Value)
				tensor.Scale(g, g, 2)
				SeedGrad(v, g)
			})
		return sumAll(tp, sq)
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	tape := NewTape()
	v := tape.Param(onesT(2, 2))
	if err := tape.Backward(v); err == nil {
		t.Fatal("non-scalar Backward should error")
	}
}

func TestDeepChainGrad(t *testing.T) {
	// A two-layer MLP-like chain exercises composition.
	rng := rand.New(rand.NewSource(8))
	x := randT(rng, 5, 4)
	w1 := randT(rng, 4, 6)
	b1 := randT(rng, 6)
	w2 := randT(rng, 6, 3)
	labels := []int{0, 1, 2, 1, 0}
	checkGrads(t, "mlp-chain", []*tensor.Tensor{w1, b1, w2}, func(tp *Tape, vars []*Var) *Var {
		xin := tp.Input(x)
		h := tp.ReLU(tp.AddRowVec(tp.MatMul(xin, vars[0]), vars[1]))
		logits := tp.MatMul(h, vars[2])
		return tp.CrossEntropyLoss(logits, labels, nil)
	})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		9, 0, 0,
	}, 4, 3)
	labels := []int{0, 1, 2, 1}
	if got := Accuracy(logits, labels, nil); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
	mask := []bool{true, true, true, false}
	if got := Accuracy(logits, labels, mask); got != 1 {
		t.Fatalf("masked Accuracy = %v", got)
	}
	if got := Accuracy(logits, labels, []bool{false, false, false, false}); got != 0 {
		t.Fatalf("empty-mask Accuracy = %v", got)
	}
}

func TestSplitConcatRoundTripGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randT(rng, 4, 6)
	checkGrads(t, "split-concat", []*tensor.Tensor{x}, func(tp *Tape, vars []*Var) *Var {
		parts := tp.SplitCols(vars[0], 3)
		// Scale each head differently so the gradient is head-dependent.
		for i, p := range parts {
			parts[i] = tp.Scale(p, float32(i+1))
		}
		return sumAll(tp, tp.ConcatCols(parts))
	})
}

func TestSplitColsValues(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4)
	tape := NewTape()
	parts := tape.SplitCols(tape.Input(x), 2)
	if parts[0].Value.At(0, 1) != 2 || parts[1].Value.At(1, 0) != 7 {
		t.Fatalf("split wrong: %v %v", parts[0].Value, parts[1].Value)
	}
	back := tape.ConcatCols(parts)
	if !back.Value.AllClose(x, 0) {
		t.Fatal("concat(split) != identity")
	}
}

func TestSplitColsValidation(t *testing.T) {
	tape := NewTape()
	v := tape.Input(tensor.New(2, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("non-dividing split should panic")
		}
	}()
	tape.SplitCols(v, 2)
}

package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Rank() != 2 || x.Dim(0) != 3 || x.Dim(1) != 4 || x.Len() != 12 {
		t.Fatalf("bad shape metadata: rank=%d dims=%v len=%d", x.Rank(), x.Shape(), x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[3] = 9
	if x.At(1, 1) != 9 {
		t.Fatalf("FromSlice must alias caller storage; got %v", x.At(1, 1))
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "FromSlice with wrong length")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer expectPanic(t, "New with negative dim")
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At(1,2,3) = %v, want 7.5", got)
	}
	if got := x.Data()[1*12+2*4+3]; got != 7.5 {
		t.Fatalf("row-major offset wrong: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer expectPanic(t, "At out of range")
	x.At(2, 0)
}

func TestAtWrongArityPanics(t *testing.T) {
	x := New(2, 2)
	defer expectPanic(t, "At wrong arity")
	x.At(1)
}

func TestRowView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[1] = 50
	if x.At(1, 1) != 50 {
		t.Fatal("Row must return a view, not a copy")
	}
	if x.RowStride() != 3 {
		t.Fatalf("RowStride = %d, want 3", x.RowStride())
	}
}

func TestRowFlattensTrailingDims(t *testing.T) {
	x := New(2, 3, 4)
	if got := len(x.Row(0)); got != 12 {
		t.Fatalf("Row of [2,3,4] should have 12 elements, got %d", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	c := x.Clone()
	c.Data()[0] = 99
	if x.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 2, 1)
	if x.At(1, 2) != 42 {
		t.Fatal("Reshape must alias storage")
	}
	defer expectPanic(t, "Reshape to wrong count")
	x.Reshape(4, 2)
}

func TestZeroAndFill(t *testing.T) {
	x := New(5)
	x.Fill(3)
	for _, v := range x.Data() {
		if v != 3 {
			t.Fatalf("Fill failed: %v", x.Data())
		}
	}
	x.Zero()
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("Zero failed: %v", x.Data())
		}
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.0005, 3}, 3)
	if !a.AllClose(b, 1e-3) {
		t.Fatal("AllClose should accept within tolerance")
	}
	if a.AllClose(b, 1e-5) {
		t.Fatal("AllClose should reject beyond tolerance")
	}
	if d := a.MaxAbsDiff(b); math.Abs(d-0.0005) > 1e-6 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	c := FromSlice([]float32{1, 2, 3}, 1, 3)
	if a.AllClose(c, 1) {
		t.Fatal("AllClose must compare shapes")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3}, 3)
	b := FromSlice([]float32{4, 5, -6}, 3)
	if got := Add(New(3), a, b).Data(); got[0] != 5 || got[1] != 3 || got[2] != -3 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(New(3), a, b).Data(); got[0] != -3 || got[1] != -7 || got[2] != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(New(3), a, b).Data(); got[0] != 4 || got[1] != -10 || got[2] != -18 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(New(3), a, 2).Data(); got[0] != 2 || got[1] != -4 || got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := ReLU(New(3), a).Data(); got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("ReLU = %v", got)
	}
	dst := FromSlice([]float32{1, 1, 1}, 3)
	AXPY(dst, a, 10)
	if dst.Data()[0] != 11 || dst.Data()[1] != -19 || dst.Data()[2] != 31 {
		t.Fatalf("AXPY = %v", dst.Data())
	}
}

func TestAddAliasingSafe(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	Add(a, a, a)
	if a.Data()[0] != 2 || a.Data()[1] != 4 {
		t.Fatalf("aliased Add = %v", a.Data())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(New(2, 2), a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMul shape mismatch")
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestMatMulAliasingPanics(t *testing.T) {
	buf := make([]float32, 48)
	x, y := FromSlice(buf[:16], 4, 4), FromSlice(buf[8:24], 4, 4) // overlap by 8
	z := FromSlice(buf[24:40], 4, 4)                              // adjacent to y
	ops := map[string]func(dst, a, b *Tensor) *Tensor{"MatMul": MatMul, "MatMulT": MatMulT, "TMatMul": TMatMul}
	for name, op := range ops {
		for _, c := range []struct{ dst, a, b *Tensor }{{x, x, z}, {x, z, x}, {y, x, z}, {x, z, y}} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(r.(string), "shares storage") {
						t.Fatalf("%s with dst overlapping an operand: recovered %v, want a storage panic", name, r)
					}
				}()
				op(c.dst, c.a, c.b)
			}()
		}
		op(y, z, z) // adjacent but disjoint views are fine
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulVariantsAgreeWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := New(m, k), New(k, n)
		a.FillUniform(rng, -1, 1)
		b.FillUniform(rng, -1, 1)
		want := naiveMatMul(a, b)

		if got := MatMul(New(m, n), a, b); !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMul disagrees with naive for %dx%dx%d", m, k, n)
		}
		if got := MatMulT(New(m, n), a, Transpose2D(b)); !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulT disagrees with naive for %dx%dx%d", m, k, n)
		}
		if got := TMatMul(New(m, n), Transpose2D(a), b); !got.AllClose(want, 1e-4) {
			t.Fatalf("TMatMul disagrees with naive for %dx%dx%d", m, k, n)
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose2D(a)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.AllClose(want, 0) {
		t.Fatalf("Transpose2D = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := New(m, n)
		a.FillUniform(rng, -5, 5)
		return Transpose2D(Transpose2D(a)).AllClose(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndSum(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	x := FromSlice([]float32{1, 2, 3, 4}, 4)
	if got := x.Sum(); got != 10 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestArgmaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 5, 2, 7, 7, 1}, 2, 3)
	if got := x.ArgmaxRow(0); got != 1 {
		t.Fatalf("ArgmaxRow(0) = %d", got)
	}
	if got := x.ArgmaxRow(1); got != 0 {
		t.Fatalf("ArgmaxRow(1) = %d (ties resolve low)", got)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := New(1000)
	x.FillUniform(rng, -2, 3)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
}

func TestFillGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := New(100, 50)
	x.FillGlorot(rng)
	limit := float32(math.Sqrt(6.0 / 150.0))
	for _, v := range x.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if small.String() == "" {
		t.Fatal("empty String for small tensor")
	}
	big := New(100)
	if big.String() == "" {
		t.Fatal("empty String for big tensor")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s should panic", what)
	}
}

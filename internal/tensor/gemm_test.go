package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"featgraph/internal/workpool"
)

// The GEMM contract (DESIGN.md §11.1): MatMul, MatMulT and TMatMul agree
// with a float64 product within rounding on every tail of the four-row fold;
// an output row's bits depend only on that row's operands and the shape;
// TMatMul's bits depend only on its fixed k-chunking, never on how many
// runners joined; and 0·Inf is NaN.

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	t.FillUniform(rng, -1, 1)
	return t
}

// checkProduct compares got = a×b (a [m,k], b [k,n]) against a float64
// reference, per element within a bound scaled by Σ|a||b|.
func checkProduct(t *testing.T, op string, got, a, b *Tensor) {
	t.Helper()
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s, abs float64
			for l := 0; l < k; l++ {
				p := float64(a.data[i*k+l]) * float64(b.data[l*n+j])
				s, abs = s+p, abs+math.Abs(p)
			}
			if d := math.Abs(float64(got.data[i*n+j]) - s); d > 1e-5*abs+1e-30 {
				t.Fatalf("%s %dx%dx%d: [%d,%d] = %v, want %v (|diff| %g, Σ|ab| %g)", op, m, k, n, i, j, got.data[i*n+j], s, d, abs)
			}
		}
	}
}

func TestGEMMShapeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := []int{0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65}
	var shapes [][3]int
	for _, m := range small {
		for _, k := range small {
			for _, n := range small {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// 8000 on one axis at a time — the train shapes' long axis, parallel
	// rows for MatMul/MatMulT and sixteen k-chunks for TMatMul.
	for _, x := range []int{0, 1, 5, 9} {
		for _, y := range []int{0, 1, 5, 9} {
			shapes = append(shapes, [3]int{8000, x, y}, [3]int{x, 8000, y}, [3]int{x, y, 8000})
		}
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		checkProduct(t, "MatMul", MatMul(New(m, n), a, b), a, b)
		checkProduct(t, "MatMulT", MatMulT(New(m, n), a, Transpose2D(b)), a, b)
		checkProduct(t, "TMatMul", TMatMul(New(m, n), Transpose2D(a), b), a, b)
	}
}

func sameBits(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

func TestGEMMRowsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, k, n := 300, 65, 63 // large enough to run on the pool in row spans
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	bt := Transpose2D(b)
	whole, wholeT := MatMul(New(m, n), a, b), MatMulT(New(m, n), a, bt)
	for i := 0; i < m; i++ {
		ai := FromSlice(a.Row(i), 1, k)
		if !sameBits(MatMul(New(1, n), ai, b).Data(), whole.Row(i)) {
			t.Fatalf("MatMul row %d differs from the product of that row alone", i)
		}
		if !sameBits(MatMulT(New(1, n), ai, bt).Data(), wholeT.Row(i)) {
			t.Fatalf("MatMulT row %d differs from the product of that row alone", i)
		}
	}
}

func TestTMatMulBitsIndependentOfRunners(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k, m, n := 5000, 9, 13
	a, b := randMat(rng, k, m), randMat(rng, k, n)
	want := TMatMul(New(m, n), a, b).Data()
	for rep := 0; rep < 5; rep++ {
		if got := TMatMul(New(m, n), a, b).Data(); !sameBits(got, want) {
			t.Fatalf("rep %d: TMatMul bits changed between runs", rep)
		}
	}
	// Hold every pool worker (and this submitter's stand-in) on a job that
	// waits for release: TMatMul then gets no helper and runs inline.
	pool := workpool.Default()
	release, held := make(chan struct{}), make(chan struct{}, pool.MaxRunners())
	job := workpool.Job{Body: func(_, _ int) { held <- struct{}{}; <-release }}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); pool.Run(&job, pool.MaxRunners(), pool.MaxRunners()) }()
	for i := 0; i < pool.MaxRunners(); i++ {
		select { // a worker that was not idle at the offer never joins
		case <-held:
		case <-time.After(time.Second):
		}
	}
	for rep := 0; rep < 3; rep++ {
		if got := TMatMul(New(m, n), a, b).Data(); !sameBits(got, want) {
			t.Fatalf("busy pool, rep %d: TMatMul bits depend on the runners that joined", rep)
		}
	}
	close(release)
	wg.Wait()
}

func TestGEMMZeroTimesInfIsNaN(t *testing.T) {
	inf := float32(math.Inf(1))
	a := FromSlice([]float32{0, 1}, 1, 2)
	b := FromSlice([]float32{inf, 2}, 2, 1)
	for op, got := range map[string]float32{
		"MatMul":  MatMul(New(1, 1), a, b).Data()[0],
		"MatMulT": MatMulT(New(1, 1), a, Transpose2D(b)).Data()[0],
		"TMatMul": TMatMul(New(1, 1), Transpose2D(a), b).Data()[0],
	} {
		if !math.IsNaN(float64(got)) {
			t.Fatalf("%s: 0·Inf + 1·2 = %v, want NaN", op, got)
		}
	}
}

func benchGEMM(bn *testing.B, op func(dst, a, b *Tensor) *Tensor, dst, a, b *Tensor) {
	bn.ReportAllocs()
	for bn.Loop() {
		op(dst, a, b)
	}
}

// The three products of one train_fullgraph GCN layer: n=8000, d=hidden=64.
func BenchmarkMatMul(bn *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchGEMM(bn, MatMul, New(8000, 64), randMat(rng, 8000, 64), randMat(rng, 64, 64))
}

func BenchmarkMatMulT(bn *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchGEMM(bn, MatMulT, New(8000, 64), randMat(rng, 8000, 64), randMat(rng, 64, 64))
}

func BenchmarkTMatMul(bn *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchGEMM(bn, TMatMul, New(64, 64), randMat(rng, 8000, 64), randMat(rng, 8000, 64))
}

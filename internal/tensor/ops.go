package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"

	"featgraph/internal/vec"
	"featgraph/internal/workpool"
)

// Add stores a+b into dst elementwise and returns dst. dst may alias a or b.
func Add(dst, a, b *Tensor) *Tensor {
	checkSame3(dst, a, b, "Add")
	da, db, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = da[i] + db[i]
	}
	return dst
}

// Mul stores a*b into dst elementwise and returns dst.
func Mul(dst, a, b *Tensor) *Tensor {
	checkSame3(dst, a, b, "Mul")
	da, db, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = da[i] * db[i]
	}
	return dst
}

// Scale stores a*s into dst and returns dst.
func Scale(dst, a *Tensor, s float32) *Tensor {
	checkSame2(dst, a, "Scale")
	da, dd := a.data, dst.data
	for i := range dd {
		dd[i] = da[i] * s
	}
	return dst
}

// AXPY accumulates dst += a*s.
func AXPY(dst, a *Tensor, s float32) *Tensor {
	checkSame2(dst, a, "AXPY")
	da, dd := a.data, dst.data
	for i := range dd {
		dd[i] += da[i] * s
	}
	return dst
}

// ReLU stores max(a, 0) into dst and returns dst.
func ReLU(dst, a *Tensor) *Tensor {
	checkSame2(dst, a, "ReLU")
	da, dd := a.data, dst.data
	for i := range dd {
		if da[i] > 0 {
			dd[i] = da[i]
		} else {
			dd[i] = 0
		}
	}
	return dst
}

// The three products share one inner loop, RowKernel, and one dispatcher:
// output rows of MatMul/MatMulT go to the shared pool in row spans, and
// TMatMul splits its reduction axis into chunks whose partials are summed
// in chunk order. Products under inlineMACs multiply-adds run inline. An
// output row's bits are a function of its operand rows and the shape only —
// never of the runner count or the span cut (DESIGN.md §11.1). There is no
// zero test, so 0·Inf is NaN as IEEE says. dst must not share storage with
// a or b; all three panic if it does.
const (
	inlineMACs = 1 << 15 // below this a pool handoff costs about as much as the product
	tkChunk    = 512     // TMatMul reduction rows per partial
	tkBlock    = 32      // TMatMul reduction rows per gathered column of a
)

// RowKernel folds o += a·B for one output row, B row-major [len(a), len(o)]:
// four rows of B per pass, o[j] += (a0·b0[j] + a1·b1[j]) + (a2·b2[j] +
// a3·b3[j]) (vec.Axpy4), then one row at a time for the len(a) mod 4 tail.
// It is the one dense inner loop outside internal/core; serve's layer apply
// calls it too.
func RowKernel(o, a, b []float32) {
	n := len(o)
	l := 0
	for ; l+4 <= len(a); l += 4 {
		vec.Axpy4(o, b[l*n:], b[(l+1)*n:], b[(l+2)*n:], b[(l+3)*n:], a[l], a[l+1], a[l+2], a[l+3])
	}
	for ; l < len(a); l++ {
		vec.Axpy(o, b[l*n:], a[l])
	}
}

// MatMul computes dst = a × b for 2-D tensors, with a [m,k], b [k,n],
// dst [m,n].
func MatMul(dst, a, b *Tensor) *Tensor {
	m, k, n := checkGEMM("MatMul", dst, a, b, false, false)
	gemmRows(m, k, n, func(i int) {
		o := dst.data[i*n : (i+1)*n]
		clear(o)
		RowKernel(o, a.data[i*k:(i+1)*k], b.data)
	})
	return dst
}

// MatMulT computes dst = a × bᵀ for 2-D tensors, with a [m,k], b [n,k],
// dst [m,n]. bᵀ is materialised once so every row runs RowKernel.
func MatMulT(dst, a, b *Tensor) *Tensor {
	checkGEMM("MatMulT", dst, a, b, false, true)
	return MatMul(dst, a, Transpose2D(b))
}

// TMatMul computes dst = aᵀ × b for 2-D tensors, with a [k,m], b [k,n],
// dst [m,n]. The k axis is cut into chunks of at least tkChunk rows (more
// when m×n partials would exceed 1 Mi floats); chunk c accumulates into its
// own partial, and dst is partial 0 + partial 1 + … in chunk order.
func TMatMul(dst, a, b *Tensor) *Tensor {
	m, k, n := checkGEMM("TMatMul", dst, a, b, true, false)
	dst.Zero()
	if m == 0 || n == 0 {
		return dst
	}
	mn := m * n
	maxParts := max(1<<20/mn, 1)
	kc := max(tkChunk, (k+maxParts-1)/maxParts)
	chunks := max((k+kc-1)/kc, 1)
	part := make([]float32, (chunks-1)*mn) // partial c > 0; partial 0 is dst
	gemmRows(chunks, kc, mn, func(c int) {
		p := dst.data
		if c > 0 {
			p = part[(c-1)*mn : c*mn]
		}
		var col [tkBlock]float32
		for s, end := c*kc, min((c+1)*kc, k); s < end; s += tkBlock {
			g, bs := col[:min(tkBlock, end-s)], b.data[s*n:]
			for i := 0; i < m; i++ {
				for t := range g {
					g[t] = a.data[(s+t)*m+i]
				}
				RowKernel(p[i*n:(i+1)*n], g, bs)
			}
		}
	})
	for c := 0; c < len(part); c += mn {
		for i, v := range part[c : c+mn] {
			dst.data[i] += v
		}
	}
	return dst
}

// gemmRows runs row(i) for i in [0, m), each row costing k×n multiply-adds,
// in row spans on the shared pool once the whole is worth a handoff.
func gemmRows(m, k, n int, row func(i int)) {
	threads := 1
	if m*k*n >= inlineMACs {
		threads = workpool.Default().MaxRunners()
	}
	workpool.Rows(m, inlineMACs/max(k*n, 1), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row(i)
		}
	})
}

// checkGEMM validates a product's operands and returns its m, k, n; ta and
// tb say a or b is read transposed.
func checkGEMM(op string, dst, a, b *Tensor, ta, tb bool) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if ta {
		m, k = k, m
	}
	k2, n := b.shape[0], b.shape[1]
	if tb {
		k2, n = n, k2
	}
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch a%v b%v dst%v", op, a.shape, b.shape, dst.shape))
	}
	if overlaps(dst.data, a.data) || overlaps(dst.data, b.data) {
		panic(fmt.Sprintf("tensor: %s dst shares storage with an operand", op))
	}
	return m, k, n
}

// overlaps reports whether x and y share any element of storage.
func overlaps(x, y []float32) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	xs, ys := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y))*4 && ys < xs+uintptr(len(x))*4
}

// Transpose2D returns a new tensor that is the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// ArgmaxRow returns the index of the maximum element in row i of a 2-D
// tensor; ties resolve to the lowest index.
func (t *Tensor) ArgmaxRow(i int) int {
	row := t.Row(i)
	best, bi := float32(math.Inf(-1)), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// FillUniform fills t with pseudo-random values in [lo, hi) drawn from rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*rng.Float32()
	}
}

// FillGlorot fills a [fanIn, fanOut] weight matrix with Glorot-uniform
// initialization, the standard for GNN layers.
func (t *Tensor) FillGlorot(rng *rand.Rand) {
	if t.Rank() != 2 {
		panic("tensor: FillGlorot requires a rank-2 tensor")
	}
	limit := float32(math.Sqrt(6.0 / float64(t.shape[0]+t.shape[1])))
	t.FillUniform(rng, -limit, limit)
}

func checkSame2(dst, a *Tensor, op string) {
	if !dst.SameShape(a) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, dst.shape, a.shape))
	}
}

func checkSame3(dst, a, b *Tensor, op string) {
	if !dst.SameShape(a) || !dst.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst%v a%v b%v", op, dst.shape, a.shape, b.shape))
	}
}

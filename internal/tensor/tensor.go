// Package tensor provides dense float32 tensors used throughout FeatGraph.
//
// GNN feature data is dense: vertex features are |V|×d matrices, edge
// features are |E|×d matrices, and weight matrices are d1×d2. This package
// supplies the minimal dense substrate the kernels, the autodiff engine, and
// the reference implementations share: contiguous row-major storage, cheap
// row views, and a handful of BLAS-like operations tuned well enough that the
// benchmarks measure graph-traversal effects rather than naive inner loops.
//
// Following the convention of numeric Go libraries, shape mismatches are
// programming errors and panic; data-driven validation (e.g. parsing) returns
// errors at construction boundaries instead.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or FromSlice to construct a usable one.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. All dimensions must
// be non-negative; a zero-dimension yields an empty tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is retained,
// not copied, so the caller and tensor alias the same storage. The length of
// data must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view of row i of a rank-≥1 tensor, flattening trailing
// dimensions. For a [n, d] matrix this is the d-element feature vector of
// row i. The view aliases the tensor's storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) == 0 {
		panic("tensor: Row on rank-0 tensor")
	}
	stride := len(t.data) / max(t.shape[0], 1)
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: row %d out of range [0,%d)", i, t.shape[0]))
	}
	return t.data[i*stride : (i+1)*stride]
}

// RowStride returns the number of elements per leading-dimension row.
func (t *Tensor) RowStride() int {
	if len(t.shape) == 0 || t.shape[0] == 0 {
		return 0
	}
	return len(t.data) / t.shape[0]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of u. Shapes must match exactly.
func (t *Tensor) AllClose(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		d := float64(t.data[i]) - float64(u.data[i])
		if math.Abs(d) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between t
// and u. Shapes must match.
func (t *Tensor) MaxAbsDiff(u *Tensor) float64 {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", t.shape, u.shape))
	}
	m := 0.0
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(u.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String formats small tensors in full and large ones by shape summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.data))
}

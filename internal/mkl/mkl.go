// Package mkl is the stand-in for Intel MKL's sparse BLAS in the paper's
// CPU comparisons (see DESIGN.md): a strong, hand-optimized CSR SpMM
// (mkl_scsrmm equivalent) with row-parallel multi-threading and, like the
// real library, a vectorized inner loop (internal/vec's SSE row kernels, so
// FeatGraph's kernels are not measured SIMD against scalar) — but no graph
// partitioning, no feature tiling, and no support for generalized kernels
// (MLP aggregation and dot-product attention are not expressible).
package mkl

import (
	"fmt"

	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
	"featgraph/internal/vec"
	"sync"
)

// CSRMM computes out = A × X for CSR A [n×m] and dense X [m×d], using
// numThreads workers (0 or 1 = single-threaded). A's stored values are
// used, so with binary values this is exactly GCN aggregation.
func CSRMM(a *sparse.CSR, x, out *tensor.Tensor, numThreads int) error {
	if x.Rank() != 2 || out.Rank() != 2 {
		return fmt.Errorf("mkl: CSRMM requires rank-2 tensors")
	}
	d := x.Dim(1)
	if x.Dim(0) != a.NumCols {
		return fmt.Errorf("mkl: X has %d rows, A has %d columns", x.Dim(0), a.NumCols)
	}
	if out.Dim(0) != a.NumRows || out.Dim(1) != d {
		return fmt.Errorf("mkl: out shape %v, want [%d %d]", out.Shape(), a.NumRows, d)
	}
	xd := x.Data()
	od := out.Data()
	run := func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			orow := od[r*d : (r+1)*d]
			clear(orow)
			for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
				// One kernel for binary and weighted values alike: 1·x is x, bit for bit.
				c := int(a.ColIdx[p])
				vec.Axpy(orow, xd[c*d:(c+1)*d], a.Val[p])
			}
		}
	}
	if numThreads <= 1 || a.NumRows <= 1 {
		run(0, a.NumRows)
		return nil
	}
	if numThreads > a.NumRows {
		numThreads = a.NumRows
	}
	var wg sync.WaitGroup
	for w := 0; w < numThreads; w++ {
		lo := w * a.NumRows / numThreads
		hi := (w + 1) * a.NumRows / numThreads
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

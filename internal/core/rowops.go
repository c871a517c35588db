package core

import "featgraph/internal/vec"

// Row primitives behind the CPU fast paths. The row arithmetic is
// internal/vec's — SSE2 (AVX2 for the neighbour sums) on amd64, the Go loop
// elsewhere and under -race, the same bits either way. The plain and
// edge-scaled neighbour sums are vec.SumRows and vec.ScaledSumRows, whole
// row walks that keep the output row in registers. What lives here is the
// walk over a row's neighbours for the rest: how many operand rows fold into
// the output row per pass (four dots, or two pairs), so it is loaded and
// stored once per pass instead of once per neighbour, and the leftover rows
// a pass does not cover; plus maxMinRows, whose fold compares instead of
// adding. (The MLP message is not a row of any operand: spmm.go hands two
// edges' at a time to vec.MLP2.) Summation order is a function of the
// operand order alone: results are deterministic per row and neighbour
// order, and differ from the serial left-to-right sum only in rounding
// (DESIGN.md §11.1).

// dotRows sets dots[p] to row idx[p] of data (row stride stride) dotted with
// y, for every p: vec.Dot4 over four rows per pass, each against y (whose
// loads after the first hit L1), vec.Dot for the up to three leftover rows.
// Each pass prefetches the rows prefetchAhead positions on, clamped to the
// last full pass.
func dotRows(dots, data []float32, stride int, idx []int32, y []float32) {
	n := len(y)
	dots = dots[:len(idx)]
	last := len(idx)&^3 - 4
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		q := idx[min(p+prefetchAhead, last):][:4]
		next := [4]*float32{&data[int(q[0])*stride], &data[int(q[1])*stride], &data[int(q[2])*stride], &data[int(q[3])*stride]}
		s := vec.Dot4(data[int(idx[p])*stride:][:n], y, data[int(idx[p+1])*stride:][:n], y,
			data[int(idx[p+2])*stride:][:n], y, data[int(idx[p+3])*stride:][:n], y, &next)
		copy(dots[p:p+4], s[:])
	}
	for ; p < len(idx); p++ {
		dots[p] = vec.Dot(data[int(idx[p])*stride:][:n], y)
	}
}

// prefetchAhead is how many positions ahead of its four dots a dotRows pass
// prefetches: two passes. At kernels_inmem's shape, whose feature matrix
// outgrows the per-core L2, distances from 4 to 24 measured the same.
const prefetchAhead = 8

// scaledSumRows2 adds wa[eid[p]]·a[idx[p]] + wb[eid[p]]·b[idx[p]] into orow
// for every p, a and b having row strides as and bs: one pass over the index
// list reads each index and edge id once for both rows. Two indices per
// pass, o += (wa·a + wb·b) + (wa'·a' + wb'·b'); a leftover index folds alone.
func scaledSumRows2(orow, a []float32, as int, b []float32, bs int, idx, eid []int32, wa, wb []float32) {
	eid = eid[:len(idx)]
	p := 0
	for ; p+2 <= len(idx); p += 2 {
		u, v, e0, e1 := int(idx[p]), int(idx[p+1]), eid[p], eid[p+1]
		vec.Axpy4(orow, a[u*as:], b[u*bs:], a[v*as:], b[v*bs:], wa[e0], wb[e0], wa[e1], wb[e1])
	}
	if p < len(idx) {
		u, e := int(idx[p]), eid[p]
		vec.Axpy2(orow, a[u*as:], b[u*bs:], wa[e], wb[e])
	}
}

// maxMinRows folds rows data[i*stride+lo:][:len(orow)], i ∈ idx, into orow
// by max when op is AggMax and by min otherwise, one row at a time in idx
// order.
func maxMinRows(op AggOp, orow, data []float32, stride, lo int, idx []int32) {
	n := len(orow)
	if op == AggMax {
		for _, c := range idx {
			for f, v := range data[int(c)*stride+lo:][:n] {
				if v > orow[f] {
					orow[f] = v
				}
			}
		}
		return
	}
	for _, c := range idx {
		for f, v := range data[int(c)*stride+lo:][:n] {
			if v < orow[f] {
				orow[f] = v
			}
		}
	}
}

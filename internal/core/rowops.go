package core

import "featgraph/internal/vec"

// Row primitives behind the CPU fast paths. The row arithmetic is
// internal/vec's — SSE2 (AVX2 for the neighbour sums) on amd64, the Go loop
// elsewhere and under -race, the same bits either way. The whole walks over
// a row's neighbours are vec's: the plain and edge-scaled neighbour sums
// (vec.SumRows, vec.ScaledSumRows), which keep the output row in registers,
// and the dots of a range of edges or of a row's in-edges against it
// (vec.DotEdges, vec.DotRows), four per group in one call. What lives here
// is the walk for the rest: scaledSumRows2, which folds two operand rows per
// index, two indices per pass, so the output row is loaded and stored once
// per pass instead of once per neighbour; and maxMinRows, whose fold
// compares instead of adding. (The MLP message is not a row of any operand:
// spmm.go hands two edges' at a time to vec.MLP2.) Summation order is a
// function of the operand order alone: results are deterministic per row
// and neighbour order, and differ from the serial left-to-right sum only in
// rounding (DESIGN.md §11.1).

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

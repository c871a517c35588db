package core

import "featgraph/internal/vec"

// Row primitives behind the CPU fast paths. The row arithmetic is
// internal/vec's — SSE2 on amd64, the Go loop elsewhere and under -race, the
// same bits either way. What lives here is the walk over a row's
// neighbours: how many operand rows fold into the output row per pass (four,
// or two pairs), so it is loaded and stored once per pass instead of once
// per neighbour, and the leftover rows a pass does not cover; plus mlpFold,
// whose per-edge message is not a row of any operand. Summation order is a
// function of the operand order alone: results are deterministic per row
// and neighbour order, and differ from the serial left-to-right sum only in
// rounding (DESIGN.md §11.1).

// dotRows sets dots[p] to row idx[p] of data (row stride stride) dotted with
// y, for every p: vec.Dot2 over pairs of rows, vec.Dot for a leftover one.
func dotRows(dots, data []float32, stride int, idx []int32, y []float32) {
	n := len(y)
	dots = dots[:len(idx)]
	p := 0
	for ; p+2 <= len(idx); p += 2 {
		dots[p], dots[p+1] = vec.Dot2(data[int(idx[p])*stride:][:n], data[int(idx[p+1])*stride:][:n], y)
	}
	if p < len(idx) {
		dots[p] = vec.Dot(data[int(idx[p])*stride:][:n], y)
	}
}

// sumRows adds rows data[i*stride+lo:][:len(orow)], i ∈ idx, into orow, four
// rows per pass, o += (a+b)+(c+d).
func sumRows(orow, data []float32, stride, lo int, idx []int32) {
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		vec.Add4(orow, data[int(idx[p])*stride+lo:], data[int(idx[p+1])*stride+lo:],
			data[int(idx[p+2])*stride+lo:], data[int(idx[p+3])*stride+lo:])
	}
	for ; p < len(idx); p++ {
		vec.Add(orow, data[int(idx[p])*stride+lo:])
	}
}

// scaledSumRows is sumRows with row idx[p] scaled by w[eid[p]].
func scaledSumRows(orow, data []float32, stride, lo int, idx, eid []int32, w []float32) {
	eid = eid[:len(idx)]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		vec.Axpy4(orow, data[int(idx[p])*stride+lo:], data[int(idx[p+1])*stride+lo:],
			data[int(idx[p+2])*stride+lo:], data[int(idx[p+3])*stride+lo:],
			w[eid[p]], w[eid[p+1]], w[eid[p+2]], w[eid[p+3]])
	}
	for ; p < len(idx); p++ {
		vec.Axpy(orow, data[int(idx[p])*stride+lo:], w[eid[p]])
	}
}

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

// mlpFold computes one edge's MLP message m = act(t × W[:, lo:lo+len(orow)])
// and folds it into orow with op. wd is W's data offset to column lo, ws its
// row stride. Each 8-column block of m is produced in registers over all of
// t, activated and folded from there, so the message never round-trips
// through a buffer; columns past the last full block take the scalar loop.
func mlpFold(op AggOp, orow, t, wd []float32, ws int, relu bool) {
	f := 0
	for ; f+8 <= len(orow); f += 8 {
		var m0, m1, m2, m3, m4, m5, m6, m7 float32
		for kk, a := range t {
			wb := (*[8]float32)(wd[kk*ws+f : kk*ws+f+8])
			m0 += a * wb[0]
			m1 += a * wb[1]
			m2 += a * wb[2]
			m3 += a * wb[3]
			m4 += a * wb[4]
			m5 += a * wb[5]
			m6 += a * wb[6]
			m7 += a * wb[7]
		}
		if relu { // max, not a branch: a message's sign is data-dependent
			m0, m1, m2, m3 = max(m0, 0), max(m1, 0), max(m2, 0), max(m3, 0)
			m4, m5, m6, m7 = max(m4, 0), max(m5, 0), max(m6, 0), max(m7, 0)
		}
		ob := (*[8]float32)(orow[f : f+8])
		fold1(op, &ob[0], m0)
		fold1(op, &ob[1], m1)
		fold1(op, &ob[2], m2)
		fold1(op, &ob[3], m3)
		fold1(op, &ob[4], m4)
		fold1(op, &ob[5], m5)
		fold1(op, &ob[6], m6)
		fold1(op, &ob[7], m7)
	}
	for ; f < len(orow); f++ {
		var s float32
		for kk, a := range t {
			s += a * wd[kk*ws+f]
		}
		if relu {
			s = max(s, 0)
		}
		fold1(op, &orow[f], s)
	}
}

// fold1 is aggInto for one element.
func fold1(op AggOp, acc *float32, v float32) {
	switch op {
	case AggMax:
		if v > *acc {
			*acc = v
		}
	case AggMin:
		if v < *acc {
			*acc = v
		}
	default:
		*acc += v
	}
}

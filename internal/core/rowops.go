package core

// Blocked row primitives behind the CPU fast paths. The Go compiler neither
// vectorizes nor unrolls, so each loop spells out what a scalar
// one-element-at-a-time loop leaves on the table: independent accumulator
// chains, 8-wide blocks through array pointers where values can live in
// registers across a block (one bounds check per block), several operand
// rows per pass where the output row would otherwise be loaded and stored
// once per operand, and a scalar tail for whatever a block does not cover.
// Summation order is a function of the operand order alone: results are
// deterministic per row and neighbour order, and differ from the serial
// left-to-right sum only in rounding (DESIGN.md §11.1).

// dot8 returns x·y over len(x) elements (len(y) >= len(x)) with four
// accumulator chains: a single running sum serializes on FP-add latency.
func dot8(x, y []float32) float32 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float32
	f := 0
	for ; f+8 <= len(x); f += 8 {
		xb, yb := (*[8]float32)(x[f:f+8]), (*[8]float32)(y[f:f+8])
		s0 += xb[0]*yb[0] + xb[4]*yb[4]
		s1 += xb[1]*yb[1] + xb[5]*yb[5]
		s2 += xb[2]*yb[2] + xb[6]*yb[6]
		s3 += xb[3]*yb[3] + xb[7]*yb[7]
	}
	for ; f < len(x); f++ {
		s0 += x[f] * y[f]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot8x2 returns x1·y and x2·y (len(x2), len(y) >= len(x1)), each summed
// exactly as dot8 sums it, with every 8-wide block of y loaded once for both.
func dot8x2(x1, x2, y []float32) (float32, float32) {
	x2, y = x2[:len(x1)], y[:len(x1)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float32
	f := 0
	for ; f+8 <= len(x1); f += 8 {
		yb := (*[8]float32)(y[f : f+8])
		ab, bb := (*[8]float32)(x1[f:f+8]), (*[8]float32)(x2[f:f+8])
		// Chain by chain, so only two elements of y are live at a time:
		// eight accumulators plus all of yb would spill.
		s0 += ab[0]*yb[0] + ab[4]*yb[4]
		t0 += bb[0]*yb[0] + bb[4]*yb[4]
		s1 += ab[1]*yb[1] + ab[5]*yb[5]
		t1 += bb[1]*yb[1] + bb[5]*yb[5]
		s2 += ab[2]*yb[2] + ab[6]*yb[6]
		t2 += bb[2]*yb[2] + bb[6]*yb[6]
		s3 += ab[3]*yb[3] + ab[7]*yb[7]
		t3 += bb[3]*yb[3] + bb[7]*yb[7]
	}
	for ; f < len(x1); f++ {
		s0 += x1[f] * y[f]
		t0 += x2[f] * y[f]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// dotRows sets dots[p] to row idx[p] of data (row stride stride) dotted with
// y, for every p: dot8x2 over pairs of rows, dot8 for a leftover one.
func dotRows(dots, data []float32, stride int, idx []int32, y []float32) {
	n := len(y)
	dots = dots[:len(idx)]
	p := 0
	for ; p+2 <= len(idx); p += 2 {
		dots[p], dots[p+1] = dot8x2(data[int(idx[p])*stride:][:n], data[int(idx[p+1])*stride:][:n], y)
	}
	if p < len(idx) {
		dots[p] = dot8(data[int(idx[p])*stride:][:n], y)
	}
}

// sumRows adds rows data[i*stride+lo:][:len(orow)], i ∈ idx, into orow, four
// rows per pass: orow is loaded and stored once per four neighbours instead
// of once per neighbour. The inner loop is deliberately plain — one index
// register over five bases measured faster than 8-wide blocks here.
func sumRows(orow, data []float32, stride, lo int, idx []int32) {
	n := len(orow)
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		a := data[int(idx[p])*stride+lo:][:n]
		b := data[int(idx[p+1])*stride+lo:][:n]
		c := data[int(idx[p+2])*stride+lo:][:n]
		d := data[int(idx[p+3])*stride+lo:][:n]
		for f := range orow {
			orow[f] += (a[f] + b[f]) + (c[f] + d[f])
		}
	}
	for ; p < len(idx); p++ {
		a := data[int(idx[p])*stride+lo:][:n]
		for f := range orow {
			orow[f] += a[f]
		}
	}
}

// scaledSumRows is sumRows with row idx[p] scaled by w[eid[p]].
func scaledSumRows(orow, data []float32, stride, lo int, idx, eid []int32, w []float32) {
	n := len(orow)
	eid = eid[:len(idx)]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		a := data[int(idx[p])*stride+lo:][:n]
		b := data[int(idx[p+1])*stride+lo:][:n]
		c := data[int(idx[p+2])*stride+lo:][:n]
		d := data[int(idx[p+3])*stride+lo:][:n]
		wa, wb, wc, wd := w[eid[p]], w[eid[p+1]], w[eid[p+2]], w[eid[p+3]]
		for f := range orow {
			orow[f] += (wa*a[f] + wb*b[f]) + (wc*c[f] + wd*d[f])
		}
	}
	for ; p < len(idx); p++ {
		a := data[int(idx[p])*stride+lo:][:n]
		wa := w[eid[p]]
		for f := range orow {
			orow[f] += wa * a[f]
		}
	}
}

// scaledSumRows2 adds wa[eid[p]]·a[idx[p]] + wb[eid[p]]·b[idx[p]] into orow
// for every p, a and b having row strides as and bs: one pass over the index
// list reads each index and edge id once for both rows. Two indices per
// pass, o += (wa·a + wb·b) + (wa'·a' + wb'·b'); a leftover index folds alone.
func scaledSumRows2(orow, a []float32, as int, b []float32, bs int, idx, eid []int32, wa, wb []float32) {
	n := len(orow)
	eid = eid[:len(idx)]
	p := 0
	for ; p+2 <= len(idx); p += 2 {
		u, v := int(idx[p]), int(idx[p+1])
		a0, b0 := a[u*as:][:n], b[u*bs:][:n]
		a1, b1 := a[v*as:][:n], b[v*bs:][:n]
		e0, e1 := eid[p], eid[p+1]
		wa0, wb0, wa1, wb1 := wa[e0], wb[e0], wa[e1], wb[e1]
		for f := range orow {
			orow[f] += (wa0*a0[f] + wb0*b0[f]) + (wa1*a1[f] + wb1*b1[f])
		}
	}
	if p < len(idx) {
		u := int(idx[p])
		a0, b0 := a[u*as:][:n], b[u*bs:][:n]
		wa0, wb0 := wa[eid[p]], wb[eid[p]]
		for f := range orow {
			orow[f] += wa0*a0[f] + wb0*b0[f]
		}
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

// Package vec holds the float32 row kernels the CPU hot loops are made of:
// o += a, o += (a+b)+(c+d), o += wa·a, o += wa·a+wb·b,
// o += (wa·a+wb·b)+(wc·c+wd·d), the whole neighbour walk of an output row
// (o += the rows at a list of indices, four per group, plain or each
// scaled by its edge's weight), the 8-block dot product summed in four
// lanes, of one pair of rows or, four per group, of an edge range's x[col]
// and y[row] stored by edge id or of a list of rows against one row, the
// softmax step s ← e^(s−shift) with the sum of the results (Expf32, the
// float32 exponential, per element), and the MLP message o ⊕= act(t × W)
// folded by sum, max or min; and one integer scan, the largest of a slice
// of ids read as uint32.
//
// On amd64 each kernel runs an SSE2 loop (vec_amd64.s; SSE2 is the amd64
// baseline, so nothing is probed), and the neighbour sums an AVX2 body
// where CPUID and XCR0 say the CPU and the OS support it. Every lane
// evaluates the Go loop's per-element expression in the same order, with
// no fused multiply-add, under Go's default MXCSR (round to nearest, no
// flush-to-zero), so the result is the Go loop's to the bit; only a NaN's
// payload may differ.
// Elements past the last block (len mod 4, mod 8 for the AVX2 walks) take
// the Go loop, which is also the whole body on other platforms and under
// the race detector, and what the tests compare against: each kernel's
// lower-case twin runs it alone when asm is false. (The dots' SSE bodies
// run their tails too, in the Go loop's order; ExpShiftSum also
// hands the Go loop an element of each group of four with a NaN or too
// large an argument.)
// Every operand is resliced to len(o) (len(x) for Dot) first, and a walk
// checks every index and edge id first, so one without that capacity, or
// an index out of range, panics with o untouched.
package vec

import "math"

// Add adds a into o. It is Axpy with wa = 1: 1·a is a, bit for bit.
func Add(o, a []float32) { axpy(o, a, 1, sse) }

// Add4 adds (a+b)+(c+d) into o.
func Add4(o, a, b, c, d []float32) { add4(o, a, b, c, d, sse) }

func add4(o, a, b, c, d []float32, asm bool) {
	n := len(o)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		add4SSE(&o[0], &a[0], &b[0], &c[0], &d[0], f)
	}
	for ; f < n; f++ {
		o[f] += (a[f] + b[f]) + (c[f] + d[f])
	}
}

// Axpy adds wa·a into o.
func Axpy(o, a []float32, wa float32) { axpy(o, a, wa, sse) }

func axpy(o, a []float32, wa float32, asm bool) {
	n := len(o)
	a = a[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpySSE(&o[0], &a[0], wa, f)
	}
	for ; f < n; f++ {
		o[f] += wa * a[f]
	}
}

// Axpy2 adds wa·a + wb·b into o.
func Axpy2(o, a, b []float32, wa, wb float32) { axpy2(o, a, b, wa, wb, sse) }

func axpy2(o, a, b []float32, wa, wb float32, asm bool) {
	n := len(o)
	a, b = a[:n], b[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpy2SSE(&o[0], &a[0], &b[0], wa, wb, f)
	}
	for ; f < n; f++ {
		o[f] += wa*a[f] + wb*b[f]
	}
}

// Axpy4 adds (wa·a + wb·b) + (wc·c + wd·d) into o.
func Axpy4(o, a, b, c, d []float32, wa, wb, wc, wd float32) {
	axpy4(o, a, b, c, d, wa, wb, wc, wd, sse)
}

func axpy4(o, a, b, c, d []float32, wa, wb, wc, wd float32, asm bool) {
	n := len(o)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpy4SSE(&o[0], &a[0], &b[0], &c[0], &d[0], wa, wb, wc, wd, f)
	}
	for ; f < n; f++ {
		o[f] += (wa*a[f] + wb*b[f]) + (wc*c[f] + wd*d[f])
	}
}

// SumRows adds the rows data[i*stride:][:len(o)], i ∈ idx, into o: the
// whole neighbour walk of an output row. Rows fold four at a time in idx
// order, o += (a+b)+(c+d) as Add4, and the up to three leftover rows one at
// a time, o += a as Add, so the result is theirs to the bit. The AVX2 body
// keeps a strip of up to 64 columns of o in eight registers across every
// row, loads and stores it once, and does the index loads and row address
// arithmetic itself; strips of 32, 16 and 8 columns follow, and the
// len(o) mod 8 columns past them take the per-group loop. Every index is
// checked against len(data) first, by one scan of idx.
func SumRows(o, data []float32, stride int, idx []int32) {
	sumRows(o, data, stride, idx, sse, avx2)
}

func sumRows(o, data []float32, stride int, idx []int32, asm, wide bool) {
	rowsIn(len(o), len(data), stride, idx)
	f := 0
	if wide && len(o) >= 8 && len(idx) > 0 {
		f = len(o) &^ 7
		sumRowsAVX2(&o[0], &data[0], stride, &idx[0], len(idx), f)
	}
	if f == len(o) || len(idx) == 0 {
		return
	}
	o, data = o[f:], data[f:]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		add4(o, data[int(idx[p])*stride:], data[int(idx[p+1])*stride:],
			data[int(idx[p+2])*stride:], data[int(idx[p+3])*stride:], asm)
	}
	for ; p < len(idx); p++ {
		axpy(o, data[int(idx[p])*stride:], 1, asm)
	}
}

// ScaledSumRows is SumRows with row idx[p] scaled by w[eid[p]]: four rows
// per group as Axpy4, (wa·a + wb·b) + (wc·c + wd·d), a leftover row as
// Axpy, the weights broadcast in the AVX2 body itself. Every edge id is
// checked against len(w) first, as every index is against len(data).
func ScaledSumRows(o, data []float32, stride int, idx, eid []int32, w []float32) {
	scaledSumRows(o, data, stride, idx, eid, w, sse, avx2)
}

func scaledSumRows(o, data []float32, stride int, idx, eid []int32, w []float32, asm, wide bool) {
	eid = eid[:len(idx)]
	rowsIn(len(o), len(data), stride, idx)
	rowsIn(1, len(w), 1, eid)
	f := 0
	if wide && len(o) >= 8 && len(idx) > 0 {
		f = len(o) &^ 7
		scaledSumRowsAVX2(&o[0], &data[0], stride, &idx[0], len(idx), f, &eid[0], &w[0])
	}
	if f == len(o) || len(idx) == 0 {
		return
	}
	o, data = o[f:], data[f:]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		axpy4(o, data[int(idx[p])*stride:], data[int(idx[p+1])*stride:],
			data[int(idx[p+2])*stride:], data[int(idx[p+3])*stride:],
			w[eid[p]], w[eid[p+1]], w[eid[p+2]], w[eid[p+3]], asm)
	}
	for ; p < len(idx); p++ {
		axpy(o, data[int(idx[p])*stride:], w[eid[p]], asm)
	}
}

// rowsIn panics unless the row data[i*stride:][:n] lies within size
// elements for every i ∈ idx, an index read as uint32 (so a negative one is
// out of range): the bound the AVX2 walks rely on for every address they
// form, proven before anything is written.
func rowsIn(n, size, stride int, idx []int32) {
	if len(idx) > 0 && (stride < 0 || n > size || stride > 0 && int(MaxUint32(idx)) > (size-n)/stride) {
		panic("vec: row index out of range")
	}
}

// Dot returns x·y over len(x) elements. Lane k sums x[f+k]·y[f+k] +
// x[f+k+4]·y[f+k+4] over the 8-blocks f (four chains: one running sum
// serializes on FP-add latency), the tail adds into lane 0, and the lanes
// combine as (s0+s1) + (s2+s3). The SSE body is DotRows' over one row.
func Dot(x, y []float32) float32 { return dot(x, y, sse) }

func dot(x, y []float32, asm bool) float32 {
	y = y[:len(x)]
	if asm && len(x) > 0 {
		var s float32
		var row int32
		dotRowsSSE(&s, &x[0], 0, &row, 1, &y[0], len(x))
		return s
	}
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

// DotEdges sets out[eids[p]] to Dot(x[cols[p]·xs:][:n], y[rows[p]·ys:][:n])
// for every position p in turn, or with acc adds the dot to what is there
// (dot + out[eids[p]]): an SDDMM dot over a range of edges. The SSE body
// runs four positions per group, their lane chains side by side, combined
// in registers by a 4×4 transpose, a leftover position alone, and does the
// index loads, row addresses and stores itself, so each dot is Dot's to the
// bit. Every col, row and edge id is checked first, as SumRows' indices.
func DotEdges(out, x []float32, xs int, y []float32, ys, n int, cols, rows, eids []int32, acc bool) {
	dotEdges(out, x, xs, y, ys, n, cols, rows, eids, acc, sse)
}

func dotEdges(out, x []float32, xs int, y []float32, ys, n int, cols, rows, eids []int32, acc, asm bool) {
	rows, eids = rows[:len(cols)], eids[:len(cols)]
	rowsIn(n, len(x), xs, cols)
	rowsIn(n, len(y), ys, rows)
	rowsIn(1, len(out), 1, eids)
	if asm && n > 0 && len(cols) > 0 {
		dotEdgesSSE(&out[0], &x[0], xs, &y[0], ys, n, &cols[0], &rows[0], &eids[0], len(cols), acc)
		return
	}
	for p, e := range eids {
		s := dot(x[int(cols[p])*xs:][:n], y[int(rows[p])*ys:][:n], asm)
		if acc {
			s += out[e]
		}
		out[e] = s
	}
}

// DotRows sets out[p] to Dot(x[idx[p]·xs:][:len(y)], y) for every p: the
// scores of a row's in-edges against the row. It is DotEdges' body with y
// shared, and before each group it prefetches (PREFETCHT0) the four rows 8
// positions on, clamped to the last full group; a prefetch changes no bit.
func DotRows(out, x []float32, xs int, idx []int32, y []float32) {
	dotRows(out, x, xs, idx, y, sse)
}

func dotRows(out, x []float32, xs int, idx []int32, y []float32, asm bool) {
	out = out[:len(idx)]
	rowsIn(len(y), len(x), xs, idx)
	if asm && len(y) > 0 && len(idx) > 0 {
		dotRowsSSE(&out[0], &x[0], xs, &idx[0], len(idx), &y[0], len(y))
		return
	}
	for p, i := range idx {
		out[p] = dot(x[int(i)*xs:][:len(y)], y, asm)
	}
}

// Fold is how MLP folds a message element v into its accumulator acc.
type Fold int

const (
	FoldSum Fold = iota // acc + v
	FoldMax             // v > acc ? v : acc
	FoldMin             // v < acc ? v : acc
)

// MLP folds the message act(t × W) into o by op. Column f of the message is
// Σ t[kk]·w[kk*ws+f] summed from +0 in ascending kk, then max(·, 0) when
// relu is set: w holds len(t) rows of W at row stride ws ≥ 0, each at least
// len(o) long, so a tile of W's columns is W's data from the tile's first
// column on. The message stays in registers: the SSE body accumulates 16
// columns in four registers over all of t (then 4 columns in one),
// activates and folds them from there, and the len(o) mod 4 columns past
// the last block take the Go loop.
func MLP(o, t, w []float32, ws int, relu bool, op Fold) { mlp(o, t, w, ws, relu, op, sse) }

func mlp(o, t, w []float32, ws int, relu bool, op Fold, asm bool) {
	w = mlpW(o, t, w, ws)
	f := 0
	if asm && len(o) >= 4 && len(t) > 0 {
		f = len(o) &^ 3
		floor := mlpFloor(relu)
		switch op {
		case FoldMax:
			mlpMaxSSE(&o[0], &t[0], &w[0], len(t), ws, f, floor)
		case FoldMin:
			mlpMinSSE(&o[0], &t[0], &w[0], len(t), ws, f, floor)
		default:
			mlpSumSSE(&o[0], &t[0], &w[0], len(t), ws, f, floor)
		}
	}
	mlpGo(o, t, w, ws, f, relu, op)
}

// MLP2 is MLP(o, t1, w, ws, relu, op) then MLP(o, t2, w, ws, relu, op), bit
// for bit, loading each block of W once for both messages.
func MLP2(o, t1, t2, w []float32, ws int, relu bool, op Fold) {
	mlp2(o, t1, t2, w, ws, relu, op, sse)
}

func mlp2(o, t1, t2, w []float32, ws int, relu bool, op Fold, asm bool) {
	t2 = t2[:len(t1)]
	w = mlpW(o, t1, w, ws)
	f := 0
	if asm && len(o) >= 4 && len(t1) > 0 {
		f = len(o) &^ 3
		floor := mlpFloor(relu)
		switch op {
		case FoldMax:
			mlp2MaxSSE(&o[0], &t1[0], &t2[0], &w[0], len(t1), ws, f, floor)
		case FoldMin:
			mlp2MinSSE(&o[0], &t1[0], &t2[0], &w[0], len(t1), ws, f, floor)
		default:
			mlp2SumSSE(&o[0], &t1[0], &t2[0], &w[0], len(t1), ws, f, floor)
		}
	}
	// Columns are independent, so folding t2's message after all of t1's
	// is folding each column's pair in turn.
	mlpGo(o, t1, w, ws, f, relu, op)
	mlpGo(o, t2, w, ws, f, relu, op)
}

// mlpW reslices w to the len(t) rows of len(o) elements MLP reads.
func mlpW(o, t, w []float32, ws int) []float32 {
	if ws < 0 {
		panic("vec: negative row stride")
	}
	if len(o) == 0 || len(t) == 0 {
		return nil
	}
	return w[:(len(t)-1)*ws+len(o)]
}

// mlpFloor is the SSE bodies' ReLU, max(floor, m): 0, or −Inf for none.
func mlpFloor(relu bool) float32 {
	if relu {
		return 0
	}
	return float32(math.Inf(-1))
}

// mlpGo is MLP's Go loop over columns f and up, the fold chosen once.
func mlpGo(o, t, w []float32, ws, f int, relu bool, op Fold) {
	switch op {
	case FoldMax:
		for ; f < len(o); f++ {
			if v := mlpCol(t, w, ws, f, relu); v > o[f] {
				o[f] = v
			}
		}
	case FoldMin:
		for ; f < len(o); f++ {
			if v := mlpCol(t, w, ws, f, relu); v < o[f] {
				o[f] = v
			}
		}
	default:
		for ; f < len(o); f++ {
			o[f] += mlpCol(t, w, ws, f, relu)
		}
	}
}

// mlpCol is column f of MLP's message.
func mlpCol(t, w []float32, ws, f int, relu bool) float32 {
	var m float32
	for kk, a := range t {
		m += a * w[kk*ws+f]
	}
	if relu {
		m = max(m, 0)
	}
	return m
}

// MaxUint32 returns the largest element of a read as uint32, 0 when a is
// empty: a shard load's id range check, where a negative int32 reads as
// 2^31 or more. The SSE body keeps four registers of four running maxima
// over each 16-element block; SSE2 compares only signed lanes, so every
// lane is biased by 2^31 (its sign bit flipped) first, which orders them as
// unsigned. The len(a) mod 16 elements past the last block take the Go
// loop, four independent chains. A maximum has one value, so the result
// is the Go loop's whatever the order.
func MaxUint32(a []int32) uint32 { return maxUint32(a, sse) }

func maxUint32(a []int32, asm bool) uint32 {
	var m0, m1, m2, m3 uint32
	if n := len(a) &^ 15; asm && n > 0 {
		m0 = maxUint32SSE(&a[0], n)
		a = a[n:]
	}
	for ; len(a) >= 4; a = a[4:] {
		m0, m1 = max(m0, uint32(a[0])), max(m1, uint32(a[1]))
		m2, m3 = max(m2, uint32(a[2])), max(m3, uint32(a[3]))
	}
	for _, v := range a {
		m0 = max(m0, uint32(v))
	}
	return max(m0, m1, m2, m3)
}

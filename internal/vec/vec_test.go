package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// kernel pairs an exported kernel with the Go loop it must match bit for
// bit. Both take operand rows r (the output row first for the row kernels)
// and weights w, and return what they computed: the output row, or the dots.
// Operand i of a call at width n has size(i, n) elements, n if size is nil.
type kernel struct {
	name     string
	rows, ws int
	run, ref func(r [][]float32, w []float32) []float32
	size     func(i, n int) int
}

var kernels = append([]kernel{
	{"Add", 2, 0,
		func(r [][]float32, w []float32) []float32 { Add(r[0], r[1]); return r[0] },
		func(r [][]float32, w []float32) []float32 {
			for i := range r[0] { // Add's own loop, o += a, not Axpy's with wa = 1
				r[0][i] += r[1][i]
			}
			return r[0]
		}, nil},
	{"Add4", 5, 0,
		func(r [][]float32, w []float32) []float32 { Add4(r[0], r[1], r[2], r[3], r[4]); return r[0] },
		func(r [][]float32, w []float32) []float32 { add4(r[0], r[1], r[2], r[3], r[4], false); return r[0] }, nil},
	{"Axpy", 2, 1,
		func(r [][]float32, w []float32) []float32 { Axpy(r[0], r[1], w[0]); return r[0] },
		func(r [][]float32, w []float32) []float32 { axpy(r[0], r[1], w[0], false); return r[0] }, nil},
	{"Axpy2", 3, 2,
		func(r [][]float32, w []float32) []float32 { Axpy2(r[0], r[1], r[2], w[0], w[1]); return r[0] },
		func(r [][]float32, w []float32) []float32 { axpy2(r[0], r[1], r[2], w[0], w[1], false); return r[0] }, nil},
	{"Axpy4", 5, 4,
		func(r [][]float32, w []float32) []float32 {
			Axpy4(r[0], r[1], r[2], r[3], r[4], w[0], w[1], w[2], w[3])
			return r[0]
		},
		func(r [][]float32, w []float32) []float32 {
			axpy4(r[0], r[1], r[2], r[3], r[4], w[0], w[1], w[2], w[3], false)
			return r[0]
		}, nil},
	{"Dot", 2, 0,
		func(r [][]float32, w []float32) []float32 { return []float32{Dot(r[0], r[1])} },
		func(r [][]float32, w []float32) []float32 { return []float32{dot(r[0], r[1], false)} }, nil},
	{"ExpShiftSum", 1, 1,
		func(r [][]float32, w []float32) []float32 { return []float32{ExpShiftSum(r[0], w[0])} },
		func(r [][]float32, w []float32) []float32 { return []float32{expShiftSum(r[0], w[0], false)} }, nil},
}, append(append(rowKernels(), dotKernels()...), mlpKernels()...)...)

// dotKernels is DotEdges (storing, adding with acc, and with y the same
// rows as x, as a self-attention score) and DotRows over m ∈ {0…9, 33}
// positions (every leftover count after the groups of four, and many
// groups) into six rows of x and of y at row stride n (whole rows) and n+5
// (a tile of wider ones), rows repeated and the last row among them; the
// edge ids run backwards over m+1 outputs, so out[0] is never written. The
// operands are out (m+1; DotRows' m), x's rows, and y's rows (DotRows' y).
func dotKernels() []kernel {
	const rows = 6
	var ks []kernel
	for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
		cols, ys, eids := make([]int32, m), make([]int32, m), make([]int32, m)
		for p := range cols {
			cols[p], ys[p], eids[p] = int32((5*p+2)%rows), int32((p+4)%rows), int32(m-p)
		}
		for _, pad := range []int{0, 5} {
			// width is n, from the size of x's rows.
			width := func(x []float32) int { return (len(x) - (rows-1)*pad) / rows }
			size := func(i, n int) int { return [3]int{m + 1, (rows-1)*(n+pad) + n, (rows-1)*(n+pad) + n}[i] }
			name := fmt.Sprintf("m=%d stride=n+%d", m, pad)
			for _, acc := range []bool{false, true} {
				ks = append(ks, kernel{fmt.Sprintf("DotEdges acc=%v %s", acc, name), 3, 0,
					func(r [][]float32, w []float32) []float32 {
						n := width(r[1])
						DotEdges(r[0], r[1], n+pad, r[2], n+pad, n, cols, ys, eids, acc)
						return r[0]
					},
					func(r [][]float32, w []float32) []float32 {
						n := width(r[1])
						dotEdges(r[0], r[1], n+pad, r[2], n+pad, n, cols, ys, eids, acc, false)
						return r[0]
					},
					size})
			}
			ks = append(ks, kernel{"DotEdges x==y " + name, 2, 0,
				func(r [][]float32, w []float32) []float32 {
					n := width(r[1])
					DotEdges(r[0], r[1], n+pad, r[1], n+pad, n, cols, ys, eids, false)
					return r[0]
				},
				func(r [][]float32, w []float32) []float32 {
					n := width(r[1])
					dotEdges(r[0], r[1], n+pad, r[1], n+pad, n, cols, ys, eids, false, false)
					return r[0]
				},
				size})
			ks = append(ks, kernel{"DotRows " + name, 3, 0,
				func(r [][]float32, w []float32) []float32 {
					DotRows(r[0], r[1], len(r[2])+pad, cols, r[2])
					return r[0]
				},
				func(r [][]float32, w []float32) []float32 {
					dotRows(r[0], r[1], len(r[2])+pad, cols, r[2], false)
					return r[0]
				},
				func(i, n int) int { return [3]int{m, (rows-1)*(n+pad) + n, n}[i] }})
		}
	}
	return ks
}

// rowKernels is SumRows and ScaledSumRows walking deg ∈ {0, 1, 3, 4, 5, 9,
// 13} indices (every leftover count after the groups of four) into six rows
// of data at row stride n (whole rows) and n+5 (a tile of wider ones), rows
// repeated and the last row among them; the scaled walk's edge ids run
// backwards over deg+1 weights. The operands are o (n), data's rows and the
// weights.
func rowKernels() []kernel {
	const rows = 6
	var ks []kernel
	for _, deg := range []int{0, 1, 3, 4, 5, 9, 13} {
		idx, eid := make([]int32, deg), make([]int32, deg)
		for p := range idx {
			idx[p], eid[p] = int32((5*p+2)%rows), int32(deg-p)
		}
		for _, pad := range []int{0, 5} {
			size := func(i, n int) int {
				return [3]int{n, (rows-1)*(n+pad) + n, deg + 1}[i]
			}
			name := fmt.Sprintf("deg=%d stride=n+%d", deg, pad)
			ks = append(ks, kernel{"SumRows " + name, 2, 0,
				func(r [][]float32, w []float32) []float32 {
					SumRows(r[0], r[1], len(r[0])+pad, idx)
					return r[0]
				},
				func(r [][]float32, w []float32) []float32 {
					sumRows(r[0], r[1], len(r[0])+pad, idx, false, false)
					return r[0]
				},
				size})
			ks = append(ks, kernel{"ScaledSumRows " + name, 3, 0,
				func(r [][]float32, w []float32) []float32 {
					ScaledSumRows(r[0], r[1], len(r[0])+pad, idx, eid, r[2])
					return r[0]
				},
				func(r [][]float32, w []float32) []float32 {
					scaledSumRows(r[0], r[1], len(r[0])+pad, idx, eid, r[2], false, false)
					return r[0]
				},
				size})
		}
	}
	return ks
}

// mlpKernels is MLP and MLP2 at every fold, with ReLU on and off, for d1 ∈
// {0, 1, 5, 8, 9} rows of W at row stride n (a whole W) and n+3 (a tile of
// a wider one). The operands are o (n), t (d1; MLP2's t1 and t2) and W's
// rows ((d1-1)·stride + n).
func mlpKernels() []kernel {
	var ks []kernel
	folds := map[Fold]string{FoldSum: "sum", FoldMax: "max", FoldMin: "min"}
	for _, d1 := range []int{0, 1, 5, 8, 9} {
		for _, pad := range []int{0, 3} {
			size := func(last int) func(i, n int) int {
				return func(i, n int) int {
					switch {
					case i == 0:
						return n
					case i < last:
						return d1
					case d1 == 0:
						return 0
					}
					return (d1-1)*(n+pad) + n
				}
			}
			for _, relu := range []bool{false, true} {
				for op := FoldSum; op <= FoldMin; op++ {
					name := fmt.Sprintf("d1=%d ws=n+%d relu=%v %s", d1, pad, relu, folds[op])
					ks = append(ks, kernel{"MLP " + name, 3, 0,
						func(r [][]float32, w []float32) []float32 {
							MLP(r[0], r[1], r[2], len(r[0])+pad, relu, op)
							return r[0]
						},
						func(r [][]float32, w []float32) []float32 {
							mlp(r[0], r[1], r[2], len(r[0])+pad, relu, op, false)
							return r[0]
						},
						size(2)})
					ks = append(ks, kernel{"MLP2 " + name, 4, 0,
						func(r [][]float32, w []float32) []float32 {
							MLP2(r[0], r[1], r[2], r[3], len(r[0])+pad, relu, op)
							return r[0]
						},
						func(r [][]float32, w []float32) []float32 {
							// Two MLPs in turn: the pair's sharing of W must not change a bit.
							mlp(r[0], r[1], r[3], len(r[0])+pad, relu, op, false)
							mlp(r[0], r[2], r[3], len(r[0])+pad, relu, op, false)
							return r[0]
						},
						size(3)})
				}
			}
		}
	}
	return ks
}

// same reports whether got is want to the bit, or both are NaN (an SSE NaN
// may carry another payload than the scalar one).
func same(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (want != want && got != got)
}

// check runs k and its Go loop on identical copies of rows of n elements,
// row i starting off(i) floats into its buffer behind one guard element and
// followed by another, and fails unless the results and every buffer element
// agree.
func check(t *testing.T, k kernel, n int, off func(i int) int, val func() float32) {
	t.Helper()
	bufs, refBufs := make([][]float32, k.rows), make([][]float32, k.rows)
	rows, refRows := make([][]float32, k.rows), make([][]float32, k.rows)
	for i := range bufs {
		lo, hi := 1+off(i), 1+off(i)+n
		if k.size != nil {
			hi = lo + k.size(i, n)
		}
		bufs[i] = make([]float32, hi+1)
		for j := range bufs[i] {
			bufs[i][j] = val()
		}
		refBufs[i] = append([]float32(nil), bufs[i]...)
		rows[i], refRows[i] = bufs[i][lo:hi:hi], refBufs[i][lo:hi:hi]
	}
	w := make([]float32, k.ws)
	for i := range w {
		w[i] = val()
	}
	got, want := k.run(rows, w), k.ref(refRows, w)
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s n=%d w=%v: result[%d] = %v (%#08x), Go loop %v (%#08x)",
				k.name, n, w, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	for i := range bufs {
		for j := range bufs[i] {
			if !same(bufs[i][j], refBufs[i][j]) {
				t.Fatalf("%s n=%d: operand %d buffer[%d] = %v, Go loop %v", k.name, n, i, j, bufs[i][j], refBufs[i][j])
			}
		}
	}
}

var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 1e-39, -5e-40,
	math.MaxFloat32, -math.MaxFloat32, 3e38, 1e20, -1e-20,
}

// TestKernelsMatchGoLoops holds every kernel to its Go loop over block
// tails, unaligned rows, and values whose sums round differently when
// regrouped (a wide exponent spread) or that are IEEE special cases, often
// (most MLP messages are then NaN) or rarely; with the AVX2 row walks on
// where the host has them, then off, so the SSE per-group loops they
// replace are held to the Go loop too.
func TestKernelsMatchGoLoops(t *testing.T) {
	passes := []bool{false}
	if avx2 {
		passes = []bool{true, false}
	}
	defer func(on bool) { avx2 = on }(avx2)
	for _, on := range passes {
		avx2 = on
		t.Run(fmt.Sprintf("avx2=%v", on), testKernelsMatchGoLoops)
	}
}

func testKernelsMatchGoLoops(t *testing.T) {
	var lens []int
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200)
	rng := rand.New(rand.NewSource(1))
	wide := func() float32 { return float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)) }
	mixed := func() float32 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return wide()
	}
	rare := func() float32 {
		if rng.Intn(32) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return wide()
	}
	for _, k := range kernels {
		for _, n := range lens {
			for off := 0; off < 4; off++ {
				shift := func(i int) int { return (off + i) % 4 }
				for trial := 0; trial < 3; trial++ {
					check(t, k, n, shift, wide)
					check(t, k, n, shift, mixed)
					check(t, k, n, shift, rare)
				}
			}
		}
	}
}

// FuzzVec runs every kernel against its Go loop on rows of up to 255
// elements, per-operand offsets taken two bits each from off, and element
// and weight bits taken four bytes at a time from raw, cycling.
func FuzzVec(f *testing.F) {
	f.Add(uint8(9), uint8(0), []byte{0, 0, 128, 63})
	f.Add(uint8(65), uint8(0xe4), []byte{0, 0, 128, 127, 0, 0, 192, 127, 1, 0, 0, 0, 0, 0, 0, 128, 255, 255, 127, 127})
	f.Add(uint8(33), uint8(0x1b), []byte{205, 204, 140, 63, 0, 0, 128, 191, 10, 215, 35, 60, 0, 36, 116, 73})
	f.Fuzz(func(t *testing.T, n, off uint8, raw []byte) {
		raw = raw[:len(raw)&^3]
		if len(raw) == 0 {
			raw = []byte{0, 0, 128, 63}
		}
		next := 0
		val := func() float32 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[next:]))
			next = (next + 4) % len(raw)
			return v
		}
		shift := func(i int) int { return int(off>>(2*(i%4))) & 3 }
		for _, k := range kernels {
			check(t, k, int(n), shift, val)
		}
	})
}

// TestShortOperandPanicsBeforeWriting: an operand without the capacity the
// kernel reads panics with o untouched.
func TestShortOperandPanicsBeforeWriting(t *testing.T) {
	full, short := make([]float32, 9), make([]float32, 8)
	t1, w := []float32{1, 2}, make([]float32, 2*9) // two rows of W at stride 9
	ids, ok := []int32{0, 1, 2, 3, 4}, []int32{0, 1, 0, 1, 1}
	for name, call := range map[string]func(o []float32){
		"Add4":            func(o []float32) { Add4(o, full, full, full, short) },
		"MLP short W":     func(o []float32) { MLP(o, t1, w[:17:17], 9, false, FoldSum) },
		"MLP2 short t2":   func(o []float32) { MLP2(o, t1, t1[:1:1], w, 9, false, FoldMax) },
		"MLP2 short W":    func(o []float32) { MLP2(o, t1, t1, w[:17:17], 9, true, FoldMin) },
		"MLP wide stride": func(o []float32) { MLP(o, t1, w, 10, false, FoldSum) },
		// A bad index or edge id after a whole group of four.
		"SumRows idx past data":       func(o []float32) { SumRows(o, w, 9, []int32{0, 1, 0, 1, 2}) },
		"SumRows negative idx":        func(o []float32) { SumRows(o, w, 9, []int32{0, 1, 0, 1, -1}) },
		"SumRows short data":          func(o []float32) { SumRows(o, w[:17:17], 9, []int32{0, 0, 0, 0, 1}) },
		"ScaledSumRows idx past data": func(o []float32) { ScaledSumRows(o, w, 9, []int32{0, 1, 0, 1, 2}, ids, full) },
		"ScaledSumRows eid past w":    func(o []float32) { ScaledSumRows(o, w, 9, []int32{0, 1, 0, 1, 0}, []int32{0, 1, 2, 3, 9}, full) },
		"ScaledSumRows negative eid":  func(o []float32) { ScaledSumRows(o, w, 9, []int32{0, 1, 0, 1, 0}, []int32{0, 1, 2, 3, -1}, full) },
		"ScaledSumRows short w":       func(o []float32) { ScaledSumRows(o, w, 9, []int32{0, 1, 0, 1, 0}, ids, full[:4]) },
		"ScaledSumRows short eid":     func(o []float32) { ScaledSumRows(o, w, 9, []int32{0, 1, 0, 1, 0}, ids[:4:4], full) },
		// The dot walks' x and y are w's two rows; o is their out, and every
		// index list but the bad one is in range (ok: rows 0 and 1, ids < 9).
		"DotEdges col past x":   func(o []float32) { DotEdges(o, w, 9, w, 9, 9, []int32{0, 1, 0, 1, 2}, ok, ids, false) },
		"DotEdges negative col": func(o []float32) { DotEdges(o, w, 9, w, 9, 9, []int32{0, 1, 0, 1, -1}, ok, ids, true) },
		"DotEdges row past y":   func(o []float32) { DotEdges(o, w, 9, w, 9, 9, ok, []int32{0, 1, 0, 1, 2}, ids, false) },
		"DotEdges short y":      func(o []float32) { DotEdges(o, w, 9, w[:17:17], 9, 9, ok, ok, ids, true) },
		"DotEdges eid past out": func(o []float32) { DotEdges(o, w, 9, w, 9, 9, ok, ok, []int32{0, 1, 2, 3, 9}, false) },
		"DotEdges negative eid": func(o []float32) { DotEdges(o, w, 9, w, 9, 9, ok, ok, []int32{0, 1, 2, 3, -1}, true) },
		"DotEdges short rows":   func(o []float32) { DotEdges(o, w, 9, w, 9, 9, ok, ok[:4:4], ids, false) },
		"DotRows idx past x":    func(o []float32) { DotRows(o, w, 9, []int32{0, 1, 0, 1, 2}, full) },
		"DotRows short x":       func(o []float32) { DotRows(o, w[:17:17], 9, ok, full) },
		"DotRows short out":     func(o []float32) { DotRows(o[:4:4], w, 9, ok, full) },
	} {
		o := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call(o)
		}()
		for i, v := range o {
			if v != float32(i+1) {
				t.Fatalf("%s: o[%d] = %v after the panic, want %v", name, i, v, i+1)
			}
		}
	}
}

// TestExpShiftSumMatchesGoLoop holds ExpShiftSum to its Go loop on
// arguments either side of the underflow cut, of expSSEMaxX, of k reaching
// 128 and of the overflow cut, with NaN, ±Inf and −0 at every position,
// under shifts that are 0, finite, NaN and ±Inf.
func TestExpShiftSumMatchesGoLoop(t *testing.T) {
	if sse {
		// Arguments in [−87, expSSEMaxX] all take the SSE lanes.
		s := []float32{-87, -1, 0, expSSEMaxX, 3, -50, 87.9, 1e-3}
		if done, _ := expShiftSumSSE(&s[0], len(s), 0, 0); done != len(s) {
			t.Fatalf("the SSE body did %d of %d in-range arguments", done, len(s))
		}
	}
	inf := float32(math.Inf(1))
	var edges []float32
	for _, e := range []float32{expf32UnderflowX, expSSEMaxX, 88.38, expf32OverflowX} {
		edges = append(edges, e-0.01, math.Nextafter32(e, -inf), e, math.Nextafter32(e, inf), e+0.01)
	}
	rng := rand.New(rand.NewSource(2))
	arg := func() float32 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return float32(rng.Float64()*200 - 110)
		}
		return float32(rng.NormFloat64() * 4)
	}
	var lens []int
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 31, 32, 33, 129)
	specials := []float32{float32(math.NaN()), inf, -inf, float32(math.Copysign(0, -1))}
	run := func(row []float32, shift float32, what string) {
		t.Helper()
		got, want := append([]float32(nil), row...), append([]float32(nil), row...)
		gs, ws := ExpShiftSum(got, shift), expShiftSum(want, shift, false)
		if !same(gs, ws) {
			t.Fatalf("%s n=%d shift=%v: sum %v (%#08x), Go loop %v (%#08x)",
				what, len(row), shift, gs, math.Float32bits(gs), ws, math.Float32bits(ws))
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s n=%d shift=%v: s[%d] = %v from %v, Go loop %v", what, len(row), shift, i, got[i], row[i], want[i])
			}
		}
	}
	for _, shift := range []float32{0, 2.5, -40, float32(math.NaN()), inf, -inf} {
		for _, n := range lens {
			row := make([]float32, n)
			for i := range row {
				row[i] = arg() + shift
			}
			run(row, shift, "finite")
			for _, sp := range specials {
				for i := range row {
					at := append([]float32(nil), row...)
					at[i] = sp
					run(at, shift, fmt.Sprintf("%v at %d", sp, i))
				}
			}
		}
	}
}

func TestExpf32MatchesFloat64Exp(t *testing.T) {
	// Sweep the finite range up to the overflow cut; Expf32 must stay
	// within a few ULPs of the correctly-rounded float32 exponential.
	worst := 0
	for x := float32(expf32UnderflowX); x <= expf32OverflowX; x += 0.0037 {
		want := float32(math.Exp(float64(x)))
		got := Expf32(x)
		w, g := int64(math.Float32bits(want)), int64(math.Float32bits(got))
		ulps := int(math.Abs(float64(w - g)))
		if ulps > worst {
			worst = ulps
		}
	}
	if worst > 4 {
		t.Fatalf("Expf32 worst-case error %d ULPs, want <= 4", worst)
	}
	// k = 128: 2^128 is not a float32, but e^88.5 is.
	if got, want := Expf32(88.5), math.Exp(88.5); math.IsInf(float64(got), 0) || math.Abs(float64(got)-want) > want*1e-6 {
		t.Fatalf("Expf32(88.5) = %v, want %v", got, want)
	}
	if Expf32(0) != 1 {
		t.Fatalf("Expf32(0) = %v", Expf32(0))
	}
	if !math.IsInf(float64(Expf32(200)), 1) {
		t.Fatalf("Expf32(200) = %v, want +Inf", Expf32(200))
	}
	if Expf32(-200) != 0 {
		t.Fatalf("Expf32(-200) = %v, want 0", Expf32(-200))
	}
	if negInf := float32(math.Inf(-1)); Expf32(negInf) != 0 {
		t.Fatalf("Expf32(-Inf) = %v, want 0", Expf32(negInf))
	}
	// The softmax's fused shift-exponentiate-sum agrees with the scalar form
	// element-wise, and sums in ascending order.
	vals := []float32{-80, -1.5, -1e-4, 0, 0.3, 5, 42, 87}
	batch := append([]float32(nil), vals...)
	sum := ExpShiftSum(batch, 0)
	var want float32
	for i, v := range vals {
		if batch[i] != Expf32(v) {
			t.Fatalf("ExpShiftSum[%d] = %v, Expf32 = %v", i, batch[i], Expf32(v))
		}
		want += batch[i]
	}
	if sum != want {
		t.Fatalf("ExpShiftSum sum = %v, want %v", sum, want)
	}
}

// MaxUint32 must return the largest element read as uint32, from the SSE
// body and the Go loop alike: on every length around the 16-element
// blocks, with the maximum planted at every position, and on the values
// the 2^31 bias turns into lane extremes (0, 2^31 − 1, −2^31, −1).
func TestMaxUint32MatchesScan(t *testing.T) {
	scan := func(a []int32) (m uint32) {
		for _, v := range a {
			m = max(m, uint32(v))
		}
		return m
	}
	rng := rand.New(rand.NewSource(7))
	edges := []int32{0, 1, math.MaxInt32, math.MinInt32, -1}
	for n := 0; n <= 70; n++ {
		for _, base := range [][2]int32{{0, 1 << 20}, {0, math.MaxInt32}, {math.MinInt32, math.MaxInt32}} {
			a := make([]int32, n)
			for i := range a {
				a[i] = base[0] + int32(rng.Int63n(int64(base[1])-int64(base[0])))
			}
			for pos := -1; pos < n; pos++ {
				for _, v := range edges {
					b := append([]int32(nil), a...)
					if pos >= 0 {
						b[pos] = v
					}
					want := scan(b)
					if got, goLoop := MaxUint32(b), maxUint32(b, false); got != want || goLoop != want {
						t.Fatalf("n=%d max planted at %d = %d: got %#x, Go loop %#x, want %#x", n, pos, v, got, goLoop, want)
					}
					if pos < 0 {
						break
					}
				}
			}
		}
	}
	if got := MaxUint32(make([]int32, 1<<16)); got != 0 {
		t.Fatalf("all zeros: got %#x", got)
	}
}

// CacheLines' slices start on a 64-byte boundary with capacity n, so what
// follows them on their last line is their own allocation's padding.
func TestCacheLinesStartOnALine(t *testing.T) {
	for n := 0; n <= 40; n++ {
		f, i := CacheLines[float32](n), CacheLines[int32](n)
		for _, s := range [][2]uintptr{
			{uintptr(unsafe.Pointer(unsafe.SliceData(f))), uintptr(cap(f))},
			{uintptr(unsafe.Pointer(unsafe.SliceData(i))), uintptr(cap(i))},
		} {
			if s[0]%64 != 0 || s[1] != uintptr(n) {
				t.Fatalf("n=%d: slice at %#x with capacity %d, want a 64-byte boundary and %d", n, s[0], s[1], n)
			}
		}
	}
}

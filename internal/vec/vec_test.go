package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
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
	{"Dot4", 8, 0,
		func(r [][]float32, w []float32) []float32 {
			s := Dot4(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])
			return s[:]
		},
		dot4Ref(0, 1, 2, 3, 4, 5, 6, 7), nil},
	{"Dot4 shared y", 5, 0,
		func(r [][]float32, w []float32) []float32 {
			s := Dot4(r[0], r[4], r[1], r[4], r[2], r[4], r[3], r[4])
			return s[:]
		},
		dot4Ref(0, 4, 1, 4, 2, 4, 3, 4), nil},
	{"Dot4 x==y", 4, 0,
		func(r [][]float32, w []float32) []float32 {
			s := Dot4(r[0], r[0], r[1], r[1], r[2], r[2], r[3], r[3])
			return s[:]
		},
		dot4Ref(0, 0, 1, 1, 2, 2, 3, 3), nil},
}, mlpKernels()...)

// dot4Ref is four independent Go-loop dots over operands (x1, y1) … (x4,
// y4): Dot4's running the pairs side by side and combining their lanes in
// registers must not change a bit.
func dot4Ref(x1, y1, x2, y2, x3, y3, x4, y4 int) func(r [][]float32, w []float32) []float32 {
	return func(r [][]float32, w []float32) []float32 {
		return []float32{dot(r[x1], r[y1], false), dot(r[x2], r[y2], false),
			dot(r[x3], r[y3], false), dot(r[x4], r[y4], false)}
	}
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
// (most MLP messages are then NaN) or rarely.
func TestKernelsMatchGoLoops(t *testing.T) {
	var lens []int
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 31, 32, 33, 63, 64, 65, 129)
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
	for name, call := range map[string]func(o []float32){
		"Add4":            func(o []float32) { Add4(o, full, full, full, short) },
		"Dot4 short y4":   func(o []float32) { o[0] = Dot4(o, full, o, full, o, full, o, short)[0] },
		"MLP short W":     func(o []float32) { MLP(o, t1, w[:17:17], 9, false, FoldSum) },
		"MLP2 short t2":   func(o []float32) { MLP2(o, t1, t1[:1:1], w, 9, false, FoldMax) },
		"MLP2 short W":    func(o []float32) { MLP2(o, t1, t1, w[:17:17], 9, true, FoldMin) },
		"MLP wide stride": func(o []float32) { MLP(o, t1, w, 10, false, FoldSum) },
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

package core_test

// The dot product's output bits, pinned. Each case hashes the Float32bits of
// every output of the SDDMM dot fast path (untiled and with the reduce axis
// split at 12, in Hilbert and in row-major order) and of the fused attention
// forward (out, α, deriv) and backward, on the CPU and on the simulated GPU
// (which must agree with the CPU's untiled run to the bit), so a change to
// the dot kernels' arithmetic that moves one bit of one output fails here.
// The fused graph's in-degrees run 0–9, so the in-edge walk meets every
// leftover count of its blocks. NaNs hash as one value: an SSE NaN may carry
// another payload than the scalar one (internal/vec). The bits are a
// function of the operands and the neighbour order alone, so they hold at
// any GOMAXPROCS and under -race.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/graphgen"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// goldenDotBits holds the hashes, keyed by case name.
var goldenDotBits = map[string]uint64{
	"sddmm d=1":           0x16cbdc5204003e51,
	"sddmm d=3":           0xfbbbfda54de7521d,
	"sddmm d=7":           0xf216896c148cddf5,
	"sddmm d=8":           0xa11b5aa8c45ca4ad,
	"sddmm d=9":           0xdbeb8d90238a7c31,
	"sddmm d=12":          0xd025e0678f439ced,
	"sddmm d=16":          0x627b2a2a176a85f1,
	"sddmm d=31":          0xaf1c12e8bba0d615,
	"sddmm d=64":          0x5e22e51066f64575,
	"sddmm d=65":          0xb1a2cd44f89c6b0d,
	"sddmm specials":      0x649a9523e947e129,
	"fused d=1":           0xd828e17ff7b923fd,
	"fused d=8":           0xea711a9a60fe2b71,
	"fused d=9":           0x99c0b2873611ec6d,
	"fused d=64":          0x6aee528d90aa0875,
	"fused d=65":          0x142f70a871b73125,
	"fused specials":      0x4cb7ee5a155955a5,
	"fused softmax edges": 0xf5c4feafdf8c0d21,
}

// bitsCount hashes vals' Float32bits into h, NaNs as one value, and counts
// the NaN and infinite values into nans and infs.
func bitsCount(h hash.Hash64, vals []float32, nans, infs *int) {
	var b [4]byte
	for _, v := range vals {
		u := math.Float32bits(v)
		if v != v {
			u = 0x7fc00000
			*nans++
		} else if math.IsInf(float64(v), 0) {
			*infs++
		}
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
}

// sprinkleSpecials sets a few of x's elements to +Inf, −Inf, NaN and −0.
func sprinkleSpecials(x *tensor.Tensor) {
	n, d := x.Dim(0), x.Dim(1)
	x.Set(float32(math.Inf(1)), 1, 0)
	x.Set(float32(math.Inf(-1)), 3, d-1)
	x.Set(float32(math.Inf(1)), 3, d/2)
	x.Set(float32(math.NaN()), n-2, d/3)
	for v := 0; v < n; v += 4 {
		x.Set(float32(math.Copysign(0, -1)), v, (v/4)%d)
	}
}

func TestDotBitsGolden(t *testing.T) {
	got := map[string]uint64{}
	var names []string
	var nans, infs int
	cpu := core.Options{Target: core.CPU}
	gpu := core.Options{Target: core.GPU, NoFallback: true}

	// SDDMM: the dot of every edge's endpoint rows of x.
	const n = 40
	a := graphgen.Skewed(rand.New(rand.NewSource(33)), n, 6, 1.3)
	sddmm := func(name string, x *tensor.Tensor) {
		t.Helper()
		d := x.Dim(1)
		udf, red := dotUDF(n, d)
		inputs := []*tensor.Tensor{x}
		h := fnv.New64a()
		var whole *tensor.Tensor
		for _, split := range []bool{false, true} {
			var fds *schedule.FDS
			if split {
				fds = schedule.New().Split(red, 12)
			}
			for _, hilbert := range []bool{false, true} {
				what := fmt.Sprintf("%s split=%v hilbert=%v", name, split, hilbert)
				o := cpu
				o.Hilbert = hilbert
				k, err := core.BuildSDDMM(a, udf, inputs, fds, o)
				if err != nil {
					t.Fatalf("%s: build: %v", what, err)
				}
				if k.Pattern() != "dot-src-dst" {
					t.Fatalf("%s: pattern %q, want dot-src-dst", what, k.Pattern())
				}
				out := runTwice(t, what, k, nil)
				if whole == nil {
					whole = out
				}
				bitsCount(h, out.Data(), &nans, &infs)
			}
		}
		// The device runs the whole reduce axis; its naive and tree
		// schedules differ only in what they charge.
		for _, gfds := range []*schedule.FDS{nil, schedule.New().TreeReduce(red, schedule.ThreadX)} {
			what := fmt.Sprintf("%s gpu fds=%v", name, gfds)
			k, err := core.BuildSDDMM(a, udf, inputs, gfds, gpu)
			out := runTwice(t, what, k, err)
			requireBitwise(t, what+" vs CPU", out, whole)
			bitsCount(h, out.Data(), &nans, &infs)
		}
		got[name] = h.Sum64()
		names = append(names, name)
	}
	for _, d := range []int{1, 3, 7, 8, 9, 12, 16, 31, 64, 65} {
		sddmm(fmt.Sprintf("sddmm d=%d", d), randT(rand.New(rand.NewSource(int64(d))), n, d))
	}
	x := randT(rand.New(rand.NewSource(34)), n, 21)
	sprinkleSpecials(x)
	nans, infs = 0, 0
	sddmm("sddmm specials", x)
	if nans == 0 || infs == 0 {
		t.Fatalf("sddmm specials: %d NaN and %d infinite outputs, want some of each", nans, infs)
	}

	// Fused attention forward and backward on a graph whose row v has
	// in-degree v mod 10.
	const fn = 30
	rng := rand.New(rand.NewSource(35))
	coo := &sparse.COO{NumRows: fn, NumCols: fn}
	for v := 0; v < fn; v++ {
		for _, u := range rng.Perm(fn)[:v%10] {
			coo.Row = append(coo.Row, int32(v))
			coo.Col = append(coo.Col, int32(u))
		}
	}
	fa, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.FusedAttnConfig{NegSlope: 0.2, Scale: 0.25}
	fused := func(name string, fa *sparse.CSR, x, y, dout *tensor.Tensor) {
		t.Helper()
		fat := fa.Transpose()
		m := fa.NNZ()
		h := fnv.New64a()
		var first []*tensor.Tensor
		for _, o := range []core.Options{cpu, gpu} {
			what := fmt.Sprintf("%s %s", name, o.Target)
			alpha, deriv := tensor.New(m, 1), tensor.New(m, 1)
			k, err := core.BuildFusedAttention(fa, x, y, alpha, deriv, cfg, o)
			out := runTwice(t, what, k, err)
			bk, err := core.BuildFusedAttentionBwd(fa, fat, x, y, alpha, deriv, dout, o)
			grad := runTwice(t, what+" bwd", bk, err)
			all := []*tensor.Tensor{out, alpha, deriv, grad}
			if first == nil {
				first = all
			} else {
				for i, part := range []string{"out", "alpha", "deriv", "grad"} {
					requireBitwise(t, what+" "+part+" vs CPU", all[i], first[i])
				}
			}
			for _, o := range all {
				bitsCount(h, o.Data(), &nans, &infs)
			}
		}
		got[name] = h.Sum64()
		names = append(names, name)
	}
	for _, d := range []int{1, 8, 9, 64, 65} {
		rng := rand.New(rand.NewSource(int64(1000 + d)))
		fused(fmt.Sprintf("fused d=%d", d), fa, randT(rng, fn, d), randT(rng, fn, d), randT(rng, fn, d))
	}
	rng = rand.New(rand.NewSource(36))
	x, y := randT(rng, fn, 9), randT(rng, fn, 9)
	sprinkleSpecials(x)
	nans, infs = 0, 0
	fused("fused specials", fa, x, y, randT(rng, fn, 9))
	if nans == 0 {
		t.Fatalf("fused specials: no NaN output, want some")
	}

	// The softmax's exponential at its edges: row v has 4 + v mod 10
	// in-edges, so its first group of four always fills. Source row u is
	// scaled by 1, 30, 1000 or 3000 by u mod 4, so most rows hold scores
	// more than 87 below their maximum, past the underflow cut. Source 0
	// holds a NaN and source 1 a +Inf that y's positive first column makes
	// a +Inf score; rows take source 0 when v mod 4 < 2 and source 1 when
	// v mod 4 is even, so being the smallest column ids they share the
	// first group of four in every fourth row, with the rest of the group
	// finite.
	rng = rand.New(rand.NewSource(37))
	ecoo := &sparse.COO{NumRows: fn, NumCols: fn}
	for v := 0; v < fn; v++ {
		var srcs []int
		if v%4 < 2 {
			srcs = append(srcs, 0)
		}
		if v%2 == 0 {
			srcs = append(srcs, 1)
		}
		for _, u := range rng.Perm(fn - 2) {
			if len(srcs) == 4+v%10 {
				break
			}
			srcs = append(srcs, u+2)
		}
		for _, u := range srcs {
			ecoo.Row = append(ecoo.Row, int32(v))
			ecoo.Col = append(ecoo.Col, int32(u))
		}
	}
	ea, err := sparse.FromCOO(ecoo)
	if err != nil {
		t.Fatal(err)
	}
	x, y = randT(rng, fn, 9), randT(rng, fn, 9)
	for u, xd := 0, x.Data(); u < fn; u++ {
		for j := range 9 {
			xd[u*9+j] *= [4]float32{1, 30, 1000, 3000}[u%4]
		}
	}
	for v := 0; v < fn; v++ {
		y.Set(float32(math.Abs(float64(y.At(v, 0))))+0.5, v, 0)
	}
	x.Set(float32(math.NaN()), 0, 4)
	x.Set(float32(math.Inf(1)), 1, 0)
	nans, infs = 0, 0
	fused("fused softmax edges", ea, x, y, randT(rng, fn, 9))
	if nans == 0 {
		t.Fatalf("fused softmax edges: no NaN output, want some")
	}

	for _, name := range names {
		if want, ok := goldenDotBits[name]; !ok || got[name] != want {
			t.Errorf("%q: %#016x, // output bits; golden %#016x", name, got[name], want)
		}
	}
	if len(goldenDotBits) != len(names) {
		t.Errorf("golden table has %d cases, the test runs %d", len(goldenDotBits), len(names))
	}
}

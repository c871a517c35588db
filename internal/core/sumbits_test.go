package core_test

// The neighbour sums' output bits, pinned. Each case hashes the Float32bits
// of every output of the SpMM sum fast paths — copy-src under sum and mean,
// copy-edge and src-mul-edge-scalar under sum — untiled and with the output
// axis split at 12, at one and at four graph partitions, on the CPU and on
// the simulated GPU (which must agree with the CPU's one-partition run to
// the bit, and whose hybrid-staged run is hashed too), and of the fused
// attention forward's output on both targets. Row v's in-degree is v mod 10
// and one row has 140 in-edges, so the in-edge walk meets every leftover
// count of its groups of four and a long run of whole groups; the widths
// land on every column strip and tail. A change to the sums' arithmetic or
// fold order that moves one bit of one output fails here. NaNs hash as one
// value (internal/vec). The bits are a function of the operands, the
// partition count and the neighbour order alone, so they hold at any
// GOMAXPROCS and under -race.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// goldenSumBits holds the hashes, keyed by case name.
var goldenSumBits = map[string]uint64{
	"spmm d=1":       0xcd1700164edc8bed,
	"fused d=1":      0xa1160874940c8f51,
	"spmm d=3":       0x3e997fd86092ea2d,
	"fused d=3":      0x564f96eb8b1b17f5,
	"spmm d=7":       0x3796fccbd21cc665,
	"fused d=7":      0xcffd571c4b3920dd,
	"spmm d=8":       0x3e6fdde0da0ef5d1,
	"fused d=8":      0x2a9760a56e8da219,
	"spmm d=9":       0x7c95bbd3bbff0285,
	"fused d=9":      0x5e3f56932b452d95,
	"spmm d=15":      0x8ffe909aa279bc99,
	"fused d=15":     0xa13267dfea48659d,
	"spmm d=16":      0x8ef1924e2e268e1d,
	"fused d=16":     0x24f85d5b3e8c4639,
	"spmm d=17":      0xcfa193e726c7df41,
	"fused d=17":     0x0c8c11c66b279f15,
	"spmm d=31":      0xaae264e6a61d7995,
	"fused d=31":     0x98c70af49738efd9,
	"spmm d=32":      0xa80eb14f06e571f5,
	"fused d=32":     0x9aba8d33bbb8cb6d,
	"spmm d=33":      0xc602f31dbddb7cd9,
	"fused d=33":     0xab147e2354ff18b5,
	"spmm d=63":      0xb00240b020dbe26d,
	"fused d=63":     0x44630fd667389325,
	"spmm d=64":      0x6f51f9a804978cdd,
	"fused d=64":     0x75963b84142eccdd,
	"spmm d=65":      0x7b32170c3e619f29,
	"fused d=65":     0x9234b2c952dd19d5,
	"spmm d=72":      0x776a5bf66609c92d,
	"fused d=72":     0x478678e8b0f3b029,
	"spmm d=129":     0x138e60c12f0e1ee9,
	"fused d=129":    0xbf652f97a2863f6d,
	"spmm d=200":     0x9127b9d0cad67b61,
	"fused d=200":    0x55a55fc1b9ab49bd,
	"spmm specials":  0x40c4341c74bda329,
	"fused specials": 0xa6e27f5a840ddfbd,
}

func TestSumBitsGolden(t *testing.T) {
	const n, hub = 150, 140
	rng := rand.New(rand.NewSource(41))
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for v := 0; v < n; v++ {
		deg := v % 10
		if v == n-1 {
			deg = hub
		}
		for _, u := range rng.Perm(n)[:deg] {
			coo.Row = append(coo.Row, int32(v))
			coo.Col = append(coo.Col, int32(u))
		}
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	m := a.NNZ()

	got := map[string]uint64{}
	var names []string
	var nans, infs int
	gpu := core.Options{Target: core.GPU, NoFallback: true}
	hybrid := gpu
	hybrid.HybridThreshold = 6

	// spmm hashes every sum fast path on x (n×d), e (m×d) and the edge
	// weights s (m×1).
	spmm := func(name string, x, e, s *tensor.Tensor) {
		t.Helper()
		d := x.Dim(1)
		h := fnv.New64a()
		type sumCase struct {
			pattern string
			udf     *expr.UDF
			inputs  []*tensor.Tensor
			agg     core.AggOp
		}
		for _, c := range []sumCase{
			{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum},
			{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggMean},
			{"copy-edge", expr.CopyEdge(m, d), []*tensor.Tensor{e}, core.AggSum},
			{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, m, d), []*tensor.Tensor{x, s}, core.AggSum},
		} {
			for _, fds := range []*schedule.FDS{nil, schedule.New().Split(c.udf.OutAxes[0], 12)} {
				var one *tensor.Tensor
				for _, parts := range []int{1, 4} {
					what := fmt.Sprintf("%s %s/%s parts=%d fds=%v", name, c.pattern, c.agg, parts, fds)
					k, err := core.BuildSpMM(a, c.udf, c.inputs, c.agg, fds, core.Options{Target: core.CPU, NumThreads: 2, GraphPartitions: parts})
					if err == nil && k.Pattern() != c.pattern {
						t.Fatalf("%s: pattern %q", what, k.Pattern())
					}
					out := runTwice(t, what, k, err)
					if one == nil {
						one = out
					}
					bitsCount(h, out.Data(), &nans, &infs)
				}
				what := fmt.Sprintf("%s %s/%s gpu fds=%v", name, c.pattern, c.agg, fds)
				k, err := core.BuildSpMM(a, c.udf, c.inputs, c.agg, fds, gpu)
				out := runTwice(t, what, k, err)
				requireBitwise(t, what+" vs CPU", out, one)
				bitsCount(h, out.Data(), &nans, &infs)
				k, err = core.BuildSpMM(a, c.udf, c.inputs, c.agg, fds, hybrid)
				bitsCount(h, runTwice(t, what+" hybrid", k, err).Data(), &nans, &infs)
			}
		}
		got[name] = h.Sum64()
		names = append(names, name)
	}

	// fused hashes the fused attention forward's output on both targets.
	cfg := core.FusedAttnConfig{NegSlope: 0.2, Scale: 0.25}
	fused := func(name string, x, y *tensor.Tensor) {
		t.Helper()
		h := fnv.New64a()
		var cpu *tensor.Tensor
		for _, o := range []core.Options{{Target: core.CPU, NumThreads: 2}, gpu} {
			what := fmt.Sprintf("%s %s", name, o.Target)
			k, err := core.BuildFusedAttention(a, x, y, tensor.New(m, 1), tensor.New(m, 1), cfg, o)
			out := runTwice(t, what, k, err)
			if cpu == nil {
				cpu = out
			} else {
				requireBitwise(t, what+" vs CPU", out, cpu)
			}
			bitsCount(h, out.Data(), &nans, &infs)
		}
		got[name] = h.Sum64()
		names = append(names, name)
	}

	for _, d := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72, 129, 200} {
		rng := rand.New(rand.NewSource(int64(4100 + d)))
		spmm(fmt.Sprintf("spmm d=%d", d), randT(rng, n, d), randT(rng, m, d), randT(rng, m, 1))
		fused(fmt.Sprintf("fused d=%d", d), randT(rng, n, d), randT(rng, n, d))
	}

	rng = rand.New(rand.NewSource(42))
	x, e, s := randT(rng, n, 72), randT(rng, m, 72), randT(rng, m, 1)
	for _, sp := range []*tensor.Tensor{x, e, s} {
		sprinkleSpecials(sp)
	}
	nans, infs = 0, 0
	spmm("spmm specials", x, e, s)
	fused("fused specials", x, randT(rng, n, 72))
	if nans == 0 || infs == 0 {
		t.Fatalf("specials: %d NaN and %d infinite outputs, want some of each", nans, infs)
	}

	for _, name := range names {
		if want, ok := goldenSumBits[name]; !ok || got[name] != want {
			t.Errorf("%q: %#016x, // output bits; golden %#016x", name, got[name], want)
		}
	}
	if len(goldenSumBits) != len(names) {
		t.Errorf("golden table has %d cases, the test runs %d", len(goldenSumBits), len(names))
	}
}

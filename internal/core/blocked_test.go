package core_test

// Differential coverage for the register-blocked CPU loops (rowops.go): every
// fast-path pattern at widths, degrees, tilings and shard cuts that land on
// each loop's tails, against the serial references under the oracle's
// tolerance. External test package so it can use internal/oracle.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/oracle"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// tailGraph is a 10-vertex graph whose in-degrees are maxDeg, 0, maxDeg, 1,
// maxDeg, min(2,maxDeg), maxDeg and then isolated rows, so the neighbour
// block of four sees every remainder and three edge shards cut a row.
func tailGraph(t *testing.T, rng *rand.Rand, maxDeg int) *sparse.CSR {
	t.Helper()
	const n = 10
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for r, deg := range []int{maxDeg, 0, maxDeg, min(1, maxDeg), maxDeg, min(2, maxDeg), maxDeg} {
		for _, c := range rng.Perm(n)[:deg] {
			coo.Row = append(coo.Row, int32(r))
			coo.Col = append(coo.Col, int32(c))
		}
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// threeShards serves a in (up to) three edge shards, and checks that one of
// the cuts falls inside a row when the caller relies on that.
func threeShards(t *testing.T, a *sparse.CSR, wantSplit bool) core.ShardSource {
	t.Helper()
	s := core.NewMemShardSource(a, (a.NNZ()+2)/3)
	split := false
	for i := 1; i < s.NumShards(); i++ {
		_, prevHi := s.ShardRows(i - 1)
		lo, _ := s.ShardRows(i)
		split = split || lo == prevHi-1
	}
	if wantSplit && !split {
		t.Fatalf("no row is split across the %d shards", s.NumShards())
	}
	return s
}

// mlpUDF is expr.MLPMessage with the activation optional.
func mlpUDF(n, d1, d2 int, relu bool) *expr.UDF {
	if relu {
		return expr.MLPMessage(n, d1, d2)
	}
	b := expr.NewBuilder()
	x, w := b.Placeholder("X", n, d1), b.Placeholder("W", d1, d2)
	i, k := b.OutAxis("i", d2), b.ReduceAxis("k", d1)
	return b.UDF(expr.Sum(k, expr.Mul(expr.Add(x.At(expr.Src, k), x.At(expr.Dst, k)), w.At(k, i))), i)
}

// dotUDF is expr.DotAttention, also returning its reduce axis for tiling.
func dotUDF(n, d int) (*expr.UDF, *expr.Axis) {
	b := expr.NewBuilder()
	x := b.Placeholder("X", n, d)
	i, k := b.OutAxis("i", 1), b.ReduceAxis("k", d)
	return b.UDF(expr.Sum(k, expr.Mul(x.At(expr.Src, k), x.At(expr.Dst, k))), i), k
}

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillUniform(rng, -1, 1)
	return t
}

func requireClose(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	tol := oracle.DefaultTol()
	for i, w := range want.Data() {
		if g := got.Data()[i]; !tol.Close(g, w) {
			t.Fatalf("%s: out[%d] = %v, reference %v", what, i, g, w)
		}
	}
}

func requireBitwise(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: out[%d] = %v on the rerun, %v before", what, i, g, w)
		}
	}
}

type kernel interface {
	OutShape() (int, int)
	Run(*tensor.Tensor) (core.RunStats, error)
}

// runTwice runs a freshly built kernel into two outputs, the second
// pre-filled with garbage: a loop that stores must not depend on what the
// output held, and a rerun must reproduce the first run's bits.
func runTwice(t *testing.T, what string, k kernel, err error) *tensor.Tensor {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: build: %v", what, err)
	}
	rows, cols := k.OutShape()
	out, again := tensor.New(rows, cols), tensor.New(rows, cols)
	again.Fill(float32(math.NaN()))
	for _, o := range []*tensor.Tensor{out, again} {
		if _, err := k.Run(o); err != nil {
			t.Fatalf("%s: run: %v", what, err)
		}
	}
	requireBitwise(t, what, again, out)
	return out
}

func TestBlockedLoopsMatchReferenceOnTails(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	const n, d1 = 10, 5
	opts := core.Options{Target: core.CPU, NumThreads: 2}
	for _, maxDeg := range []int{0, 1, 3, 4, 5, 9} {
		a := tailGraph(t, rng, maxDeg)
		shards := threeShards(t, a, maxDeg >= 3)
		for _, d := range []int{1, 3, 7, 8, 9, 16, 63, 64, 65} {
			x, x5, w := randT(rng, n, d), randT(rng, n, d1), randT(rng, d1, d)

			type spmmCase struct {
				name   string
				udf    *expr.UDF
				inputs []*tensor.Tensor
				aggs   []core.AggOp
			}
			all := []core.AggOp{core.AggSum, core.AggMean, core.AggMax, core.AggMin}
			sums := all[:2]
			cases := []spmmCase{
				{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}, all},
				{"mlp-relu", mlpUDF(n, d1, d, true), []*tensor.Tensor{x5, w}, all},
				{"mlp-linear", mlpUDF(n, d1, d, false), []*tensor.Tensor{x5, w}, all},
			}
			if m := a.NNZ(); m > 0 { // an edge placeholder needs at least one row
				cases = append(cases,
					spmmCase{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, m, d), []*tensor.Tensor{x, randT(rng, m, 1)}, sums},
					spmmCase{"copy-edge", expr.CopyEdge(m, d), []*tensor.Tensor{randT(rng, m, d)}, sums})
			}
			for _, c := range cases {
				for _, agg := range c.aggs {
					want, err := core.ReferenceSpMM(a, c.udf, c.inputs, agg)
					if err != nil {
						t.Fatal(err)
					}
					// One tile, then tiles of 12: a full block plus a tail,
					// starting at offsets that are not multiples of eight.
					for _, fds := range []*schedule.FDS{nil, schedule.New().Split(c.udf.OutAxes[0], 12)} {
						what := fmt.Sprintf("%s/%s deg=%d d=%d fds=%v", c.name, agg, maxDeg, d, fds)
						k, err := core.BuildSpMM(a, c.udf, c.inputs, agg, fds, opts)
						requireClose(t, what, runTwice(t, what, k, err), want)
						ks, err := core.BuildShardedSpMM(shards, c.udf, c.inputs, agg, fds, opts, nil)
						requireClose(t, what+" sharded", runTwice(t, what+" sharded", ks, err), want)
					}
				}
			}

			udf, red := dotUDF(n, d)
			want, err := core.ReferenceSDDMM(a, udf, []*tensor.Tensor{x})
			if err != nil {
				t.Fatal(err)
			}
			for _, hilbert := range []bool{false, true} {
				// One reduce tile stores; three make the later two accumulate.
				for _, fds := range []*schedule.FDS{nil, schedule.New().Split(red, (d+2)/3)} {
					o := opts
					o.Hilbert = hilbert
					what := fmt.Sprintf("dot deg=%d d=%d hilbert=%v fds=%v", maxDeg, d, hilbert, fds)
					k, err := core.BuildSDDMM(a, udf, []*tensor.Tensor{x}, fds, o)
					requireClose(t, what, runTwice(t, what, k, err), want)
					ks, err := core.BuildShardedSDDMM(shards, udf, []*tensor.Tensor{x}, fds, o, nil)
					requireClose(t, what+" sharded", runTwice(t, what+" sharded", ks, err), want)
				}
			}
		}
	}
}

// The blocked loops keep the engine's steady state allocation-free, at a
// width and degree that exercise both their blocks and their tails, with
// telemetry off and with Options.Metrics recording every run.
func TestBlockedLoopsAreAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	const n, d, d1 = 10, 65, 5
	a := tailGraph(t, rng, 9)
	x, e1, ed := randT(rng, n, d), randT(rng, a.NNZ(), 1), randT(rng, a.NNZ(), d)
	x5, w := randT(rng, n, d1), randT(rng, d1, d)
	dot, red := dotUDF(n, d)

	for _, metrics := range []bool{false, true} {
		opts := core.Options{Target: core.CPU, NumThreads: 2, Metrics: metrics}
		cases := map[string]kernel{}
		spmm := func(name string, udf *expr.UDF, agg core.AggOp, inputs ...*tensor.Tensor) {
			k, err := core.BuildSpMM(a, udf, inputs, agg, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			cases[name] = k
		}
		spmm("copy-src", expr.CopySrc(n, d), core.AggSum, x)
		spmm("src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, a.NNZ(), d), core.AggSum, x, e1)
		spmm("copy-edge", expr.CopyEdge(a.NNZ(), d), core.AggMean, ed)
		spmm("mlp", mlpUDF(n, d1, d, true), core.AggMax, x5, w)
		for name, fds := range map[string]*schedule.FDS{"dot": nil, "dot-3-reduce-tiles": schedule.New().Split(red, 22)} {
			k, err := core.BuildSDDMM(a, dot, []*tensor.Tensor{x}, fds, opts)
			if err != nil {
				t.Fatal(err)
			}
			cases[name] = k
		}
		for name, k := range cases {
			rows, cols := k.OutShape()
			out := tensor.New(rows, cols)
			run := func() {
				if _, err := k.Run(out); err != nil {
					t.Fatal(err)
				}
			}
			run() // the first run may finish lazy per-slot scratch
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%s metrics=%v: %v allocs per steady-state run, want 0", name, metrics, allocs)
			}
		}
	}
}

// A zero combined feature must not skip its row of W: 0·Inf is NaN in the
// reference, the generic path and the Ligra baseline, and a fast path that
// returns a finite message instead also hides the fault from CheckNumerics.
func TestMLPFastPathKeepsZeroTimesInf(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	const n, d1, d2 = 10, 5, 9
	a := tailGraph(t, rng, 4)
	x, w := randT(rng, n, d1), randT(rng, d1, d2)
	for v := 0; v < n; v++ {
		x.Set(0, v, 2) // x_src[2] + x_dst[2] == 0 on every edge
	}
	// Met only by that zero: column 0 in the 8-wide block, column 8 in the tail.
	w.Set(float32(math.Inf(1)), 2, 0)
	w.Set(float32(math.Inf(-1)), 2, 8)
	udf, inputs := mlpUDF(n, d1, d2, false), []*tensor.Tensor{x, w}

	want, err := core.ReferenceSpMM(a, udf, inputs, core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 8} {
		if v := want.At(0, col); !math.IsNaN(float64(v)) {
			t.Fatalf("reference out[0,%d] = %v, want NaN: the case does not reach 0·Inf", col, v)
		}
	}
	opts := core.Options{Target: core.CPU}
	k, err := core.BuildSpMM(a, udf, inputs, core.AggSum, nil, opts)
	if err == nil && k.Pattern() != "mlp-src-dst" {
		t.Fatalf("pattern %q: the case does not reach the MLP fast path", k.Pattern())
	}
	requireClose(t, "mlp 0·Inf", runTwice(t, "mlp 0·Inf", k, err), want)

	opts.CheckNumerics = true
	k, err = core.BuildSpMM(a, udf, inputs, core.AggSum, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	var numErr *core.NumericError
	if _, err := k.Run(tensor.New(n, d2)); !errors.As(err, &numErr) {
		t.Fatalf("CheckNumerics run returned %v, want *core.NumericError", err)
	}
}

package gunrock

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func setup(t *testing.T, seed int64, n, deg int) (*Graph, *cudasim.Device, *sparse.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	csr := sparse.Random(rng, n, n, deg)
	return NewGraph(csr), cudasim.NewDevice(cudasim.Config{NumSMs: 4}), csr
}

func randT(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	x.FillUniform(rng, -1, 1)
	return x
}

// checkEveryEdgeOnce runs adv over a random graph of n vertices and
// degree deg and fails unless every edge is visited exactly once.
func checkEveryEdgeOnce(t *testing.T, adv func(*cudasim.Device, *Graph, EdgeFunc) (uint64, error), seed int64, n, deg int) {
	t.Helper()
	g, dev, csr := setup(t, seed, n, deg)
	visits := make([]int32, csr.NNZ())
	cycles, err := adv(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		atomic.AddInt32(&visits[eid], 1)
		b.Charge(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("advance should charge cycles")
	}
	for e, v := range visits {
		if v != 1 {
			t.Fatalf("n=%d: edge %d visited %d times", n, e, v)
		}
	}
}

func TestAdvanceVisitsEveryEdgeOnce(t *testing.T) {
	// 400 vertices of degree 5 fill eight 256-thread blocks, so every block
	// but the last is full and the grid spans all four SMs.
	for _, n := range []int{40, 400} {
		checkEveryEdgeOnce(t, Advance, 1, n, 5)
	}
}

// TestAdvanceCoversEdges checks the builtins' advance, which differs from
// Advance only on empty graphs.
func TestAdvanceCoversEdges(t *testing.T) {
	checkEveryEdgeOnce(t, advance, 1, 30, 4)
}

func TestAdvanceEmptyGraphErrors(t *testing.T) {
	csr, err := sparse.FromCOO(&sparse.COO{NumRows: 3, NumCols: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(csr)
	dev := cudasim.NewDevice(cudasim.Config{})
	if _, err := Advance(dev, g, func(*cudasim.Block, int32, int32, int32) {}); err == nil {
		t.Fatal("empty graph should error")
	}
}

// TestAdvanceEmptyGraph checks that the builtins advance a zero-edge graph
// trivially, without launching a kernel.
func TestAdvanceEmptyGraph(t *testing.T) {
	csr, err := sparse.FromCOO(&sparse.COO{NumRows: 3, NumCols: 3})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := advance(cudasim.NewDevice(cudasim.Config{}), NewGraph(csr), func(*cudasim.Block, int32, int32, int32) {
		t.Fatal("kernel should not run")
	})
	if err != nil || cycles != 0 {
		t.Fatalf("empty advance: cycles=%d err=%v", cycles, err)
	}
}

func TestGCNAggregationMatchesReference(t *testing.T) {
	g, dev, csr := setup(t, 2, 40, 5)
	const d = 16
	x := randT(3, g.N, d)
	want, err := core.ReferenceSpMM(csr, expr.CopySrc(g.N, d), []*tensor.Tensor{x}, core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(g.N, d)
	cycles, err := GCNAggregation(dev, g, x, out)
	if err != nil {
		t.Fatal(err)
	}
	// Atomic float adds reorder, so allow fp tolerance.
	if !out.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
	if cycles == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestMLPAggregationMatchesReference(t *testing.T) {
	g, dev, csr := setup(t, 4, 25, 4)
	const d1, d2 = 8, 12
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(g.N, d1)
	w := tensor.New(d1, d2)
	x.FillUniform(rng, -1, 1)
	w.FillUniform(rng, -1, 1)
	want, err := core.ReferenceSpMM(csr, expr.MLPMessage(g.N, d1, d2), []*tensor.Tensor{x, w}, core.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(g.N, d2)
	if _, err := MLPAggregation(dev, g, x, w, out); err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
}

// TestDotAttentionMatchesReference checks EdgeDot(x, x), dot-product
// attention, against the SDDMM reference.
func TestDotAttentionMatchesReference(t *testing.T) {
	g, dev, csr := setup(t, 6, 30, 4)
	const d = 32
	x := randT(7, g.N, d)
	want, err := core.ReferenceSDDMM(csr, expr.DotAttention(g.N, d), []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	att := tensor.New(csr.NNZ(), 1)
	if _, err := EdgeDot(dev, g, x, x, att); err != nil {
		t.Fatal(err)
	}
	if !att.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", att.MaxAbsDiff(want))
	}
}

// TestEdgeDotMatchesReference checks EdgeDot against the SDDMM reference
// for x[src]·y[dst] with distinct operands.
func TestEdgeDotMatchesReference(t *testing.T) {
	g, dev, csr := setup(t, 8, 20, 3)
	const d = 16
	b := expr.NewBuilder()
	xp, yp := b.Placeholder("X", g.N, d), b.Placeholder("Y", g.N, d)
	i, k := b.OutAxis("i", 1), b.ReduceAxis("k", d)
	udf := b.UDF(expr.Sum(k, expr.Mul(xp.At(expr.Src, k), yp.At(expr.Dst, k))), i)
	x, y := randT(9, g.N, d), randT(10, g.N, d)
	want, err := core.ReferenceSDDMM(csr, udf, []*tensor.Tensor{x, y})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(csr.NNZ(), 1)
	if _, err := EdgeDot(dev, g, x, y, out); err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
}

func TestGatherScatterComposeToSpMM(t *testing.T) {
	// gather-src followed by scatter-add is exactly copy-src + sum.
	g, dev, csr := setup(t, 2, 25, 4)
	const d = 8
	x := randT(3, 25, d)
	want, err := core.ReferenceSpMM(csr, expr.CopySrc(25, d), []*tensor.Tensor{x}, core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	msg := tensor.New(csr.NNZ(), d)
	if _, err := GatherSrc(dev, g, x, msg, nil); err != nil {
		t.Fatal(err)
	}
	out := tensor.New(25, d)
	if _, err := ScatterAddByDst(dev, g, msg, out); err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
}

func TestGatherSrcScaled(t *testing.T) {
	g, dev, csr := setup(t, 4, 10, 2)
	const d = 4
	x := randT(5, 10, d)
	scale := make([]float32, csr.NNZ())
	for i := range scale {
		scale[i] = float32(i)
	}
	msg := tensor.New(csr.NNZ(), d)
	if _, err := GatherSrc(dev, g, x, msg, scale); err != nil {
		t.Fatal(err)
	}
	// Check one edge directly.
	e := csr.NNZ() / 2
	src := g.Edges.Col[e]
	eid := g.Edges.EID[e]
	for f := 0; f < d; f++ {
		want := scale[eid] * x.At(int(src), f)
		if msg.At(int(eid), f) != want {
			t.Fatalf("scaled gather wrong at edge %d", e)
		}
	}
}

func TestGatherDstVariants(t *testing.T) {
	g, dev, csr := setup(t, 6, 10, 2)
	const d = 4
	x := randT(7, 10, d)
	msg := tensor.New(csr.NNZ(), d)

	perVertex := make([]float32, 10)
	for i := range perVertex {
		perVertex[i] = float32(i + 1)
	}
	if _, err := GatherDst(dev, g, x, msg, perVertex, false); err != nil {
		t.Fatal(err)
	}
	e := csr.NNZ() - 1
	dst, eid := g.Edges.Row[e], g.Edges.EID[e]
	if msg.At(int(eid), 0) != perVertex[dst]*x.At(int(dst), 0) {
		t.Fatal("per-vertex scaled gather-dst wrong")
	}

	perEdge := make([]float32, csr.NNZ())
	for i := range perEdge {
		perEdge[i] = 0.5
	}
	if _, err := GatherDst(dev, g, x, msg, perEdge, true); err != nil {
		t.Fatal(err)
	}
	if msg.At(int(eid), 1) != 0.5*x.At(int(dst), 1) {
		t.Fatal("per-edge scaled gather-dst wrong")
	}
}

func TestShapeValidation(t *testing.T) {
	g, dev, csr := setup(t, 10, 8, 2)
	x := tensor.New(8, 4)
	if _, err := GatherSrc(dev, g, x, tensor.New(csr.NNZ(), 5), nil); err == nil {
		t.Error("gather msg width mismatch should error")
	}
	if _, err := GatherDst(dev, g, x, tensor.New(csr.NNZ()+1, 4), nil, false); err == nil {
		t.Error("gather-dst msg rows mismatch should error")
	}
	if _, err := ScatterAddByDst(dev, g, tensor.New(csr.NNZ(), 5), tensor.New(8, 4)); err == nil {
		t.Error("scatter width mismatch should error")
	}
	if _, err := EdgeDot(dev, g, x, tensor.New(8, 5), tensor.New(csr.NNZ(), 1)); err == nil {
		t.Error("dot width mismatch should error")
	}
}

func TestGunrockPaysAtomicPenaltyVsFeatGraph(t *testing.T) {
	// The headline claim of Table IV(a): FeatGraph's row-per-block SpMM
	// avoids the atomics Gunrock needs, so its simulated cycles are far
	// lower on vertex-wise reductions.
	g, dev, csr := setup(t, 8, 60, 8)
	const d = 32
	x := randT(9, g.N, d)

	out := tensor.New(g.N, d)
	gunCycles, err := GCNAggregation(dev, g, x, out)
	if err != nil {
		t.Fatal(err)
	}

	udf := expr.CopySrc(g.N, d)
	fgKernel, err := core.BuildSpMM(csr, udf, []*tensor.Tensor{x}, core.AggSum, nil, core.Options{Target: core.GPU, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	fgOut := tensor.New(g.N, d)
	fgStats, err := fgKernel.Run(fgOut)
	if err != nil {
		t.Fatal(err)
	}
	if !fgOut.AllClose(out, 1e-3) {
		t.Fatal("FeatGraph and Gunrock disagree on the result")
	}
	if gunCycles <= fgStats.SimCycles {
		t.Fatalf("Gunrock cycles %d should exceed FeatGraph %d", gunCycles, fgStats.SimCycles)
	}
}

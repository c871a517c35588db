package dgl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func testConfigs() map[string]Config {
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 2})
	return map[string]Config{
		"naive-cpu":     {Backend: Naive, Target: core.CPU},
		"naive-cpu-mt":  {Backend: Naive, Target: core.CPU, NumThreads: 3},
		"featgraph-cpu": {Backend: FeatGraph, Target: core.CPU, GraphPartitions: 2, FeatureTileFactor: 4},
		"naive-gpu":     {Backend: Naive, Target: core.GPU, Device: dev},
		"featgraph-gpu": {Backend: FeatGraph, Target: core.GPU, Device: dev},
	}
}

func testGraph(t *testing.T, seed int64, n, deg int) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return sparse.Random(rng, n, n, deg)
}

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillUniform(rng, -1, 1)
	return x
}

func TestNewValidation(t *testing.T) {
	bad := &sparse.CSR{NumRows: 2, NumCols: 3, RowPtr: []int32{0, 0, 0}}
	if _, err := New(bad, Config{}); err == nil {
		t.Fatal("non-square adjacency should be rejected")
	}
	if Naive.String() != "naive" || FeatGraph.String() != "featgraph" {
		t.Fatal("backend strings wrong")
	}
}

// fdCheck compares an op's analytic input gradients against central finite
// differences of a sum-loss.
func fdCheck(t *testing.T, name string, params []*tensor.Tensor, build func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var) {
	t.Helper()
	tape := autodiff.NewTape()
	vars := make([]*autodiff.Var, len(params))
	for i, p := range params {
		vars[i] = tape.Param(p)
	}
	loss := build(tape, vars)
	if err := tape.Backward(loss); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	eval := func() float64 {
		tp2 := autodiff.NewTape()
		vs := make([]*autodiff.Var, len(params))
		for i, p := range params {
			vs[i] = tp2.Param(p)
		}
		return float64(build(tp2, vs).Value.Data()[0])
	}
	const eps = 1e-2
	for pi, p := range params {
		grad := vars[pi].Grad()
		if grad == nil {
			t.Fatalf("%s: param %d missing grad", name, pi)
		}
		data := p.Data()
		for i := 0; i < len(data); i += max(1, len(data)/5) {
			orig := data[i]
			data[i] = orig + eps
			plus := eval()
			data[i] = orig - eps
			minus := eval()
			data[i] = orig
			fd := (plus - minus) / (2 * eps)
			an := float64(grad.Data()[i])
			if math.Abs(fd-an) > 3e-2*(1+math.Abs(fd)) {
				t.Errorf("%s: param %d elem %d: analytic %.5f vs fd %.5f", name, pi, i, an, fd)
			}
		}
	}
}

// sumLoss reduces a Var to a scalar via matmul with ones.
func sumLoss(tp *autodiff.Tape, v *autodiff.Var) *autodiff.Var {
	n, d := v.Value.Dim(0), v.Value.Dim(1)
	l := tensor.New(1, n)
	l.Fill(1)
	r := tensor.New(d, 1)
	r.Fill(1)
	return tp.MatMul(tp.MatMul(tp.Input(l), v), tp.Input(r))
}

func TestCopySumGradAllBackends(t *testing.T) {
	adj := testGraph(t, 1, 12, 3)
	const d = 6
	rng := rand.New(rand.NewSource(2))
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 12, d)
		// One op instance per tape use (fdCheck replays the forward), so
		// build inside the closure-producing call via a fresh op each time.
		fdCheck(t, name+"/copysum", []*tensor.Tensor{x}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewCopySum(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], nil))
		})
	}
}

func TestCopyMeanGradAllBackends(t *testing.T) {
	adj := testGraph(t, 3, 12, 3)
	const d = 4
	rng := rand.New(rand.NewSource(4))
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 12, d)
		fdCheck(t, name+"/copymean", []*tensor.Tensor{x}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewCopyMean(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], nil))
		})
	}
}

func TestWeightedSumGradAllBackends(t *testing.T) {
	adj := testGraph(t, 5, 10, 3)
	const d = 4
	rng := rand.New(rand.NewSource(6))
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 10, d)
		w := randT(rng, adj.NNZ(), 1)
		fdCheck(t, name+"/weightedsum", []*tensor.Tensor{x, w}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewWeightedSum(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], vars[1], nil))
		})
	}
}

func TestDotGradAllBackends(t *testing.T) {
	adj := testGraph(t, 7, 10, 3)
	const d = 4
	rng := rand.New(rand.NewSource(8))
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 10, d)
		y := randT(rng, 10, d)
		fdCheck(t, name+"/dot", []*tensor.Tensor{x, y}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewDot(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], vars[1], nil))
		})
	}
}

func TestEdgeSoftmaxForwardAndGrad(t *testing.T) {
	adj := testGraph(t, 9, 8, 3)
	rng := rand.New(rand.NewSource(10))
	g, err := New(adj, Config{Backend: Naive, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	att := randT(rng, adj.NNZ(), 1)

	// Forward: per-destination probabilities sum to 1.
	tp := autodiff.NewTape()
	v := tp.Param(att)
	probs := g.EdgeSoftmax(tp, v)
	for r := 0; r < adj.NumRows; r++ {
		var sum float64
		for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
			pr := float64(probs.Value.At(int(adj.EID[p]), 0))
			if pr <= 0 || pr > 1 {
				t.Fatalf("prob out of range: %v", pr)
			}
			sum += pr
		}
		if adj.RowDegree(r) > 0 && math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d probs sum to %v", r, sum)
		}
	}

	// Gradient vs finite differences through a weighted loss.
	weights := randT(rng, 1, adj.NNZ())
	fdCheck(t, "edgesoftmax", []*tensor.Tensor{att}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
		p := g.EdgeSoftmax(tp, vars[0])
		return tp.MatMul(tp.Input(weights), p)
	})
}

func TestBackendsAgreeOnForward(t *testing.T) {
	adj := testGraph(t, 11, 30, 5)
	const d = 8
	rng := rand.New(rand.NewSource(12))
	x := randT(rng, 30, d)
	w := randT(rng, adj.NNZ(), 1)

	var refSum, refDot *tensor.Tensor
	for _, cfg := range []Config{
		{Backend: Naive, Target: core.CPU},
		{Backend: FeatGraph, Target: core.CPU, GraphPartitions: 3, FeatureTileFactor: 4},
		{Backend: FeatGraph, Target: core.GPU},
		{Backend: Naive, Target: core.GPU},
	} {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp := autodiff.NewTape()
		opW, err := g.NewWeightedSum(d)
		if err != nil {
			t.Fatal(err)
		}
		sum := opW.ApplyCtx(context.Background(), tp, tp.Input(x), tp.Input(w), nil)
		opD, err := g.NewDot(d)
		if err != nil {
			t.Fatal(err)
		}
		dot := opD.ApplyCtx(context.Background(), tp, tp.Input(x), tp.Input(x), nil)
		if refSum == nil {
			refSum, refDot = sum.Value, dot.Value
			continue
		}
		if !sum.Value.AllClose(refSum, 1e-3) {
			t.Errorf("%v/%v: weighted-sum disagrees, max diff %v", cfg.Backend, cfg.Target, sum.Value.MaxAbsDiff(refSum))
		}
		if !dot.Value.AllClose(refDot, 1e-3) {
			t.Errorf("%v/%v: dot disagrees, max diff %v", cfg.Backend, cfg.Target, dot.Value.MaxAbsDiff(refDot))
		}
	}
}

func TestNaiveBackendTracksMessageBytes(t *testing.T) {
	adj := testGraph(t, 13, 20, 4)
	const d = 8
	rng := rand.New(rand.NewSource(14))
	x := randT(rng, 20, d)

	gN, err := New(adj, Config{Backend: Naive, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	tp := autodiff.NewTape()
	op, err := gN.NewCopySum(d)
	if err != nil {
		t.Fatal(err)
	}
	op.ApplyCtx(context.Background(), tp, tp.Input(x), nil)
	if want := uint64(4 * adj.NNZ() * d); gN.MsgBytes != want {
		t.Fatalf("MsgBytes = %d, want %d", gN.MsgBytes, want)
	}

	gF, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	tp2 := autodiff.NewTape()
	opF, err := gF.NewCopySum(d)
	if err != nil {
		t.Fatal(err)
	}
	opF.ApplyCtx(context.Background(), tp2, tp2.Input(x), nil)
	if gF.MsgBytes != 0 {
		t.Fatalf("FeatGraph backend materialized %d bytes", gF.MsgBytes)
	}
	gN.ResetStats()
	if gN.MsgBytes != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestGPUBackendsChargeCycles(t *testing.T) {
	adj := testGraph(t, 15, 20, 4)
	const d = 8
	rng := rand.New(rand.NewSource(16))
	x := randT(rng, 20, d)
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 2})

	var naive, fused uint64
	for _, cfg := range []Config{
		{Backend: Naive, Target: core.GPU, Device: dev},
		{Backend: FeatGraph, Target: core.GPU, Device: dev},
	} {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp := autodiff.NewTape()
		op, err := g.NewCopySum(d)
		if err != nil {
			t.Fatal(err)
		}
		var info RunInfo
		loss := sumLoss(tp, op.ApplyCtx(context.Background(), tp, tp.Param(x), &info))
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		// Kernel runs report to the RunInfo; the graph counts the naive
		// backend's materialisation and the dense work around the op.
		total := g.SimCycles + info.SimCycles
		if info.SimCycles == 0 && cfg.Backend == FeatGraph {
			t.Fatal("featgraph: the sparse kernels charged no cycles to the RunInfo")
		}
		if total == 0 {
			t.Fatalf("%v: no cycles charged", cfg.Backend)
		}
		if cfg.Backend == Naive {
			naive = total
		} else {
			fused = total
		}
	}
	if naive <= fused {
		t.Fatalf("naive GPU cycles %d should exceed fused %d (atomics + materialization)", naive, fused)
	}
}

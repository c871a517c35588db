package dgl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/graphgen"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// isolatedGraph returns a square graph whose vertex 0 has no in-edges, so
// zero-in-degree handling is always exercised.
func isolatedGraph(t *testing.T, seed int64, n, deg int) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for r := 1; r < n; r++ {
		seen := map[int32]bool{}
		for len(seen) < deg {
			c := int32(rng.Intn(n))
			if seen[c] {
				continue
			}
			seen[c] = true
			coo.Row = append(coo.Row, int32(r))
			coo.Col = append(coo.Col, c)
		}
	}
	csr, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// fusedEpoch runs one forward+backward epoch of a fused attention op.
func fusedEpoch(t *testing.T, op *FusedAttentionOp, x, y *tensor.Tensor) (out, gx, gy *tensor.Tensor) {
	t.Helper()
	tp := autodiff.NewTape()
	xv, yv := tp.Param(x), tp.Param(y)
	o := op.ApplyCtx(context.Background(), tp, xv, yv, nil)
	if err := tp.Backward(sumLoss(tp, o)); err != nil {
		t.Fatal(err)
	}
	return o.Value, xv.Grad(), yv.Grad()
}

// threePassEpoch runs the legacy pipeline with the fused op's exact math:
// att = (1/√d)·LeakyReLU(dot, 0.2) → edge softmax → weighted sum.
func threePassEpoch(t *testing.T, g *Graph, x, y *tensor.Tensor, d int) (out, gx, gy *tensor.Tensor) {
	t.Helper()
	dot, err := g.NewDot(d)
	if err != nil {
		t.Fatal(err)
	}
	wsum, err := g.NewWeightedSum(d)
	if err != nil {
		t.Fatal(err)
	}
	tp := autodiff.NewTape()
	xv, yv := tp.Param(x), tp.Param(y)
	att := tp.Scale(tp.LeakyReLU(dot.ApplyCtx(context.Background(), tp, xv, yv, nil), 0.2), float32(1/math.Sqrt(float64(d))))
	alpha := g.EdgeSoftmax(tp, att)
	o := wsum.ApplyCtx(context.Background(), tp, xv, alpha, nil)
	if err := tp.Backward(sumLoss(tp, o)); err != nil {
		t.Fatal(err)
	}
	return o.Value, xv.Grad(), yv.Grad()
}

func TestFusedAttentionMatchesThreePass(t *testing.T) {
	adj := isolatedGraph(t, 30, 14, 3)
	const d = 6
	rng := rand.New(rand.NewSource(31))
	x := randT(rng, 14, d)
	y := randT(rng, 14, d)
	const tol = 1e-3
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		op, err := g.NewFusedAttention(d)
		if err != nil {
			t.Fatal(err)
		}
		outF, gxF, gyF := fusedEpoch(t, op, x, y)
		outT, gxT, gyT := threePassEpoch(t, g, x, y, d)
		if !outF.AllClose(outT, tol) {
			t.Errorf("%s: fused vs 3-pass output max diff %v", name, outF.MaxAbsDiff(outT))
		}
		if !gxF.AllClose(gxT, tol) || !gyF.AllClose(gyT, tol) {
			t.Errorf("%s: fused vs 3-pass gradients: gx %v gy %v",
				name, gxF.MaxAbsDiff(gxT), gyF.MaxAbsDiff(gyT))
		}
		// Isolated vertex 0 aggregates to zero in both.
		for f := 0; f < d; f++ {
			if outF.At(0, f) != 0 {
				t.Fatalf("%s: isolated row not zero: %v", name, outF.Row(0))
			}
		}
	}
}

func TestFusedAttentionGradAllBackends(t *testing.T) {
	adj := testGraph(t, 33, 10, 3)
	const d = 4
	rng := rand.New(rand.NewSource(34))
	for name, cfg := range testConfigs() {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 10, d)
		y := randT(rng, 10, d)
		fdCheck(t, name+"/fusedattn", []*tensor.Tensor{x, y}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewFusedAttention(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], vars[1], nil))
		})
		// GAT's self-attention shape: both feature roles are one Var, whose
		// gradient is the sum of the dX and dY streams.
		z := randT(rng, 10, d)
		fdCheck(t, name+"/fusedattn-self", []*tensor.Tensor{z}, func(tp *autodiff.Tape, vars []*autodiff.Var) *autodiff.Var {
			op, err := g.NewFusedAttention(d)
			if err != nil {
				t.Fatal(err)
			}
			return sumLoss(tp, op.ApplyCtx(context.Background(), tp, vars[0], vars[0], nil))
		})
	}
}

// FuzzFusedAttention cross-checks the fused kernel path (FeatGraph
// backend), the materialized naive path, and the three-pass reference
// pipeline on random tiny graphs — forward and both gradients — and
// verifies a plan-cached second epoch reproduces the first bit-for-bit.
func FuzzFusedAttention(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkFusedAttention)
}

func checkFusedAttention(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	adj := graphgen.Tiny(rng, 20)
	n := adj.NumRows
	d := 1 + rng.Intn(8)

	fg, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU,
		NumThreads: 1 + rng.Intn(3)})
	if err != nil {
		t.Fatalf("seed %d: featgraph graph: %v", seed, err)
	}
	nv, err := New(adj, Config{Backend: Naive})
	if err != nil {
		t.Fatalf("seed %d: naive graph: %v", seed, err)
	}
	defer fg.InvalidatePlans()

	x := tensor.New(n, d)
	x.FillUniform(rng, 0.5, 1.5)
	y := tensor.New(n, d)
	y.FillUniform(rng, 0.5, 1.5)
	const tol = 1e-3

	opF, err := fg.NewFusedAttention(d)
	if err != nil {
		t.Fatalf("seed %d: featgraph fused op: %v", seed, err)
	}
	opN, err := nv.NewFusedAttention(d)
	if err != nil {
		t.Fatalf("seed %d: naive fused op: %v", seed, err)
	}
	outF, gxF, gyF := fusedEpoch(t, opF, x, y)
	outF2, gxF2, gyF2 := fusedEpoch(t, opF, x, y) // all plan-cache hits
	outN, gxN, gyN := fusedEpoch(t, opN, x, y)
	if !sameData(outF, outF2) || !sameData(gxF, gxF2) || !sameData(gyF, gyF2) {
		t.Fatalf("seed %d: plan-cached fused epoch diverged from first epoch", seed)
	}
	if !outF.AllClose(outN, tol) || !gxF.AllClose(gxN, tol) || !gyF.AllClose(gyN, tol) {
		t.Fatalf("seed %d: fused vs naive: out %v gx %v gy %v",
			seed, outF.MaxAbsDiff(outN), gxF.MaxAbsDiff(gxN), gyF.MaxAbsDiff(gyN))
	}
	if adj.NNZ() > 0 { // the three-pass pipeline needs a non-empty edge set
		outT, gxT, gyT := threePassEpoch(t, fg, x, y, d)
		if !outF.AllClose(outT, tol) || !gxF.AllClose(gxT, tol) || !gyF.AllClose(gyT, tol) {
			t.Fatalf("seed %d: fused vs 3-pass: out %v gx %v gy %v",
				seed, outF.MaxAbsDiff(outT), gxF.MaxAbsDiff(gxT), gyF.MaxAbsDiff(gyT))
		}
	} else {
		for i, v := range outF.Data() {
			if v != 0 {
				t.Fatalf("seed %d: empty graph fused output[%d] = %v", seed, i, v)
			}
		}
	}
}

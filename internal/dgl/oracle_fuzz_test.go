package dgl

// Differential fuzzing at the framework level: the FeatGraph backend
// (fused kernels, plan-cached) and the Naive backend (materialized
// messages) implement identical math, so forward outputs and input
// gradients must agree for any graph and feature values. A second
// FeatGraph epoch re-fetches every plan from the cache and must reproduce
// the first epoch bit-for-bit — the plan-cache safety property under fuzz.

import (
	"context"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/graphgen"
	"featgraph/internal/tensor"
)

func FuzzBackendsAgree(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkBackendsAgree)
}

func checkBackendsAgree(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	adj := graphgen.Tiny(rng, 20)
	n := adj.NumRows
	d := 1 + rng.Intn(8)

	fg, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU,
		NumThreads:      1 + rng.Intn(3),
		GraphPartitions: rng.Intn(3), FeatureTileFactor: rng.Intn(4)})
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
	const tol = 1e-3

	kind := rng.Intn(3)
	if kind == 2 && adj.NNZ() == 0 {
		kind = 0 // dot produces per-edge output; fall back on empty graphs
	}
	switch kind {
	case 0, 1:
		mean := kind == 1
		newOp := func(g *Graph) (*CopyAggOp, error) {
			if mean {
				return g.NewCopyMean(d)
			}
			return g.NewCopySum(d)
		}
		opF, err := newOp(fg)
		if err != nil {
			t.Fatalf("seed %d: featgraph op: %v", seed, err)
		}
		opN, err := newOp(nv)
		if err != nil {
			t.Fatalf("seed %d: naive op: %v", seed, err)
		}
		outF, gradF := copyAggEpoch(t, opF, x)
		outF2, gradF2 := copyAggEpoch(t, opF, x) // all plan-cache hits
		outN, gradN := copyAggEpoch(t, opN, x)
		if !sameData(outF, outF2) || !sameData(gradF, gradF2) {
			t.Fatalf("seed %d: plan-cached epoch diverged from first epoch (mean=%v)", seed, mean)
		}
		if !outF.AllClose(outN, tol) {
			t.Fatalf("seed %d: backends disagree on output (mean=%v): max diff %v", seed, mean, outF.MaxAbsDiff(outN))
		}
		if !gradF.AllClose(gradN, tol) {
			t.Fatalf("seed %d: backends disagree on gradient (mean=%v): max diff %v", seed, mean, gradF.MaxAbsDiff(gradN))
		}
	case 2:
		y := tensor.New(n, d)
		y.FillUniform(rng, 0.5, 1.5)
		opF, err := fg.NewDot(d)
		if err != nil {
			t.Fatalf("seed %d: featgraph dot: %v", seed, err)
		}
		opN, err := nv.NewDot(d)
		if err != nil {
			t.Fatalf("seed %d: naive dot: %v", seed, err)
		}
		outF, gxF, gyF := dotEpoch(t, opF, x, y)
		outF2, gxF2, gyF2 := dotEpoch(t, opF, x, y)
		outN, gxN, gyN := dotEpoch(t, opN, x, y)
		if !sameData(outF, outF2) || !sameData(gxF, gxF2) || !sameData(gyF, gyF2) {
			t.Fatalf("seed %d: plan-cached dot epoch diverged from first epoch", seed)
		}
		if !outF.AllClose(outN, tol) || !gxF.AllClose(gxN, tol) || !gyF.AllClose(gyN, tol) {
			t.Fatalf("seed %d: backends disagree on dot: out %v gx %v gy %v",
				seed, outF.MaxAbsDiff(outN), gxF.MaxAbsDiff(gxN), gyF.MaxAbsDiff(gyN))
		}
	}
}

// dotEpoch runs one forward+backward epoch of a dot op and returns the
// forward output and both input gradients.
func dotEpoch(t *testing.T, op *DotOp, x, y *tensor.Tensor) (out, gx, gy *tensor.Tensor) {
	t.Helper()
	tp := autodiff.NewTape()
	xv, yv := tp.Param(x), tp.Param(y)
	o := op.ApplyCtx(context.Background(), tp, xv, yv, nil)
	if err := tp.Backward(sumLoss(tp, o)); err != nil {
		t.Fatal(err)
	}
	return o.Value, xv.Grad(), yv.Grad()
}

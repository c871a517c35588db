package dgl

import (
	"context"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/tensor"
)

// copyAggEpoch runs one forward+backward "epoch" of a copy-agg op and
// returns the forward output and the input gradient.
func copyAggEpoch(t *testing.T, op *CopyAggOp, x *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	tp := autodiff.NewTape()
	xv := tp.Param(x)
	y := op.ApplyCtx(context.Background(), tp, xv, nil)
	if err := tp.Backward(sumLoss(tp, y)); err != nil {
		t.Fatal(err)
	}
	return y.Value, xv.Grad()
}

func sameData(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// TestPlanCacheEpochsHitWithoutRebuild is the headline cache property:
// constructing the ops records the misses, and every later epoch is pure
// hits — no kernel is ever rebuilt inside the training loop.
func TestPlanCacheEpochsHitWithoutRebuild(t *testing.T) {
	adj := testGraph(t, 21, 64, 4)
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU, NumThreads: 2, GraphPartitions: 2, FeatureTileFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	const d = 8
	op, err := g.NewCopySum(d)
	if err != nil {
		t.Fatal(err)
	}
	if g.PlanCache.Misses != 2 || g.PlanCache.Hits != 0 {
		t.Fatalf("after construction: %+v, want 2 misses, 0 hits", g.PlanCache)
	}

	rng := rand.New(rand.NewSource(22))
	x := randT(rng, 64, d)
	missesAfterBuild := g.PlanCache.Misses
	var firstOut, firstGrad *tensor.Tensor
	const epochs = 4
	for e := 0; e < epochs; e++ {
		out, grad := copyAggEpoch(t, op, x)
		if e == 0 {
			firstOut, firstGrad = out, grad
			continue
		}
		if !sameData(out, firstOut) || !sameData(grad, firstGrad) {
			t.Fatalf("epoch %d: cached plans produced different results", e)
		}
	}
	if g.PlanCache.Misses != missesAfterBuild {
		t.Fatalf("epochs rebuilt kernels: misses %d -> %d", missesAfterBuild, g.PlanCache.Misses)
	}
	if want := uint64(epochs * 2); g.PlanCache.Hits != want {
		t.Fatalf("hits = %d, want %d (fwd+bwd per epoch)", g.PlanCache.Hits, want)
	}
}

// TestPlanCacheCachedMatchesFresh builds the same op twice per backend: the
// second op stages into fresh buffers, so it compiles fresh plans; its
// results must be bit-identical to the first op's cached-plan results.
func TestPlanCacheCachedMatchesFresh(t *testing.T) {
	adj := testGraph(t, 23, 48, 5)
	const d = 6
	rng := rand.New(rand.NewSource(24))
	x := randT(rng, 48, d)
	dev := testConfigs()["featgraph-gpu"].Device
	for name, cfg := range map[string]Config{
		"cpu": {Backend: FeatGraph, Target: core.CPU, NumThreads: 2, GraphPartitions: 2, FeatureTileFactor: 3},
		"gpu": {Backend: FeatGraph, Target: core.GPU, Device: dev},
	} {
		g, err := New(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := g.NewCopyMean(d)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the cached op's plans, then run it again (all hits).
		copyAggEpoch(t, cached, x)
		hitsBefore := g.PlanCache.Hits
		cachedOut, cachedGrad := copyAggEpoch(t, cached, x)
		if g.PlanCache.Hits <= hitsBefore {
			t.Fatalf("%s: second epoch recorded no cache hits: %+v", name, g.PlanCache)
		}

		fresh, err := g.NewCopyMean(d) // fresh buffers -> fresh plans
		if err != nil {
			t.Fatal(err)
		}
		freshOut, freshGrad := copyAggEpoch(t, fresh, x)
		if !sameData(cachedOut, freshOut) || !sameData(cachedGrad, freshGrad) {
			t.Fatalf("%s: cached plan diverges from freshly compiled plan", name)
		}
	}
}

// TestPlanCacheShapeChangeMissesNotCorrupts rebuilds an op at a different
// feature width over the same graph: the new shape must miss the cache (new
// plans) and both widths must keep producing correct results.
func TestPlanCacheShapeChangeMissesNotCorrupts(t *testing.T) {
	adj := testGraph(t, 25, 40, 4)
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	naiveG, err := New(adj, Config{Backend: Naive})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for _, d := range []int{4, 8} {
		missesBefore := g.PlanCache.Misses
		op, err := g.NewCopySum(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.PlanCache.Misses != missesBefore+2 {
			t.Fatalf("d=%d: expected 2 new misses, got %+v", d, g.PlanCache)
		}
		naiveOp, err := naiveG.NewCopySum(d)
		if err != nil {
			t.Fatal(err)
		}
		x := randT(rng, 40, d)
		out, grad := copyAggEpoch(t, op, x)
		wantOut, wantGrad := copyAggEpoch(t, naiveOp, x)
		if !out.AllClose(wantOut, 1e-5) || !grad.AllClose(wantGrad, 1e-5) {
			t.Fatalf("d=%d: featgraph output diverges from naive backend", d)
		}
	}
}

// TestInvalidatePlansForcesRebuild drops a graph's plans and checks the next
// epoch recompiles them (misses) without changing results.
func TestInvalidatePlansForcesRebuild(t *testing.T) {
	adj := testGraph(t, 27, 32, 3)
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	const d = 5
	op, err := g.NewCopySum(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	x := randT(rng, 32, d)
	out1, grad1 := copyAggEpoch(t, op, x)

	if removed := g.InvalidatePlans(); removed < 2 {
		t.Fatalf("InvalidatePlans removed %d plans, want >= 2", removed)
	}
	missesBefore := g.PlanCache.Misses
	out2, grad2 := copyAggEpoch(t, op, x)
	if g.PlanCache.Misses != missesBefore+2 {
		t.Fatalf("epoch after invalidation should rebuild both plans: %+v", g.PlanCache)
	}
	if !sameData(out1, out2) || !sameData(grad1, grad2) {
		t.Fatal("rebuild after invalidation changed results")
	}
	if planCacheLen() == 0 {
		t.Fatal("rebuilt plans should be back in the cache")
	}
}

// TestResetStatsZeroesPlanCacheCounters pins CacheStats into the stats
// lifecycle.
func TestResetStatsZeroesPlanCacheCounters(t *testing.T) {
	adj := testGraph(t, 29, 16, 3)
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NewDot(4); err != nil {
		t.Fatal(err)
	}
	if g.PlanCache == (CacheStats{}) {
		t.Fatal("op construction should have recorded cache traffic")
	}
	g.ResetStats()
	if g.PlanCache != (CacheStats{}) {
		t.Fatalf("ResetStats left plan-cache counters: %+v", g.PlanCache)
	}
}

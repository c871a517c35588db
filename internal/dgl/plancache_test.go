package dgl

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

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

// TestPlanCacheEpochsHitWithoutRebuild is the headline property: building
// the ops compiles their kernels (misses), and every later epoch only runs
// them (hits) — no kernel is ever rebuilt inside the training loop, however
// many ops share the graph.
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
	if s := g.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("after construction: %+v, want 2 misses, 0 hits", s)
	}

	rng := rand.New(rand.NewSource(22))
	x := randT(rng, 64, d)
	var firstOut, firstGrad *tensor.Tensor
	const epochs = 4
	for e := 0; e < epochs; e++ {
		out, grad := copyAggEpoch(t, op, x)
		if e == 0 {
			firstOut, firstGrad = out, grad
			continue
		}
		if !sameData(out, firstOut) || !sameData(grad, firstGrad) {
			t.Fatalf("epoch %d: reused kernels produced different results", e)
		}
	}
	if s := g.Stats(); s.Misses != 2 || s.Hits != epochs*2 {
		t.Fatalf("after %d epochs: %+v, want 2 misses and %d hits (fwd+bwd per epoch)", epochs, s, epochs*2)
	}

	// 65 ops hold 130 kernels, more than any bounded shared cache of 128
	// would keep: epochs over all of them must still compile nothing.
	ops := make([]*CopyAggOp, 65)
	for i := range ops {
		if ops[i], err = g.NewCopySum(d); err != nil {
			t.Fatal(err)
		}
	}
	built := g.Stats().Misses
	for e := 0; e < 3; e++ {
		for _, op := range ops {
			copyAggEpoch(t, op, x)
		}
	}
	if got := g.Stats().Misses; got != built {
		t.Fatalf("3 epochs over %d ops rebuilt %d kernels", len(ops), got-built)
	}
}

// TestDroppedOpReleasesItsBuffers checks that nothing outside an op keeps
// its kernels: once the graph and its op are unreachable, a collection
// frees the staging buffer the op's kernels were bound to.
func TestDroppedOpReleasesItsBuffers(t *testing.T) {
	xbuf := func() weak.Pointer[tensor.Tensor] {
		adj := testGraph(t, 31, 48, 4)
		g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU, NumThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		op, err := g.NewCopySum(6)
		if err != nil {
			t.Fatal(err)
		}
		copyAggEpoch(t, op, randT(rand.New(rand.NewSource(32)), 48, 6))
		return weak.Make(op.xbuf)
	}()
	runtime.GC()
	if xbuf.Value() != nil {
		t.Fatal("a dropped op's staging buffer survived a collection")
	}
}

// TestPlanCacheCachedMatchesFresh builds the same op twice per backend: the
// second op compiles its own kernels over its own buffers, and its results
// must be bit-identical to the first op's reused kernels.
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
		hitsBefore := g.Stats().Hits
		cachedOut, cachedGrad := copyAggEpoch(t, cached, x)
		if s := g.Stats(); s.Hits <= hitsBefore {
			t.Fatalf("%s: second epoch recorded no hits: %+v", name, s)
		}

		fresh, err := g.NewCopyMean(d) // a second op compiles its own kernels
		if err != nil {
			t.Fatal(err)
		}
		freshOut, freshGrad := copyAggEpoch(t, fresh, x)
		if !sameData(cachedOut, freshOut) || !sameData(cachedGrad, freshGrad) {
			t.Fatalf("%s: reused kernel diverges from a freshly compiled one", name)
		}
	}
}

// TestPlanCacheShapeChangeMissesNotCorrupts rebuilds an op at a different
// feature width over the same graph: the new op compiles new kernels
// (misses) and both widths must keep producing correct results.
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
		missesBefore := g.Stats().Misses
		op, err := g.NewCopySum(d)
		if err != nil {
			t.Fatal(err)
		}
		if s := g.Stats(); s.Misses != missesBefore+2 {
			t.Fatalf("d=%d: expected 2 new misses, got %+v", d, s)
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
	if g.Stats() == (CacheStats{}) {
		t.Fatal("op construction should have recorded kernel builds")
	}
	g.ResetStats()
	if s := g.Stats(); s != (CacheStats{}) {
		t.Fatalf("ResetStats left kernel counters: %+v", s)
	}
}

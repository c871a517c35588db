package dgl

import (
	"math/rand"
	"sync"
	"testing"

	"featgraph/internal/core"
)

// TestPlanCacheStatsConcurrent polls Stats while concurrent Applies on one
// graph move its counters. Run with -race to get the guarantee that the
// counters are read and written without a data race.
func TestPlanCacheStatsConcurrent(t *testing.T) {
	adj := testGraph(t, 41, 48, 4)
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.CPU, NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	const d = 6
	const workers = 4
	// One op per goroutine: ops stage into private buffers, so only the
	// per-graph stats counters are shared.
	ops := make([]*CopyAggOp, workers)
	for i := range ops {
		if ops[i], err = g.NewCopySum(d); err != nil {
			t.Fatal(err)
		}
	}
	x := randT(rand.New(rand.NewSource(42)), 48, d)

	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
				s := g.Stats()
				if s.Misses < uint64(len(ops)) {
					t.Errorf("poller observed fewer misses (%d) than constructed ops (%d)", s.Misses, len(ops))
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(op *CopyAggOp) {
			defer wg.Done()
			for e := 0; e < 25; e++ {
				copyAggEpoch(t, op, x)
			}
		}(ops[w])
	}
	wg.Wait()
	close(done)
	poller.Wait()

	// 2 kernels per op construction; every epoch runs both.
	s := g.Stats()
	if want := uint64(workers * 2); s.Misses != want {
		t.Fatalf("misses = %d, want %d", s.Misses, want)
	}
	if want := uint64(workers * 25 * 2); s.Hits != want {
		t.Fatalf("hits = %d, want %d", s.Hits, want)
	}

	g.ResetStats()
	if g.Stats() != (CacheStats{}) {
		t.Fatalf("ResetStats left counters: %+v", g.Stats())
	}
}

package dgl

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// fakeKernel is a no-op core.Kernel so planner tests never compile real
// schedules.
type fakeKernel struct{ core.Kernel }

// buildCounter returns a build func that counts invocations.
func buildCounter(n *atomic.Int64) func() (core.Kernel, error) {
	return func() (core.Kernel, error) {
		n.Add(1)
		return fakeKernel{}, nil
	}
}

func TestShardPlanCacheHitsAndStaleDeletion(t *testing.T) {
	a := testGraph(t, 60, 40, 4)
	shards := partition.EdgeShards(a, 32)
	if len(shards) < 2 {
		t.Fatalf("want >= 2 shards, got %d", len(shards))
	}
	extracted := make([]*sparse.CSR, len(shards))
	for i, s := range shards {
		extracted[i] = partition.ExtractShard(a, s)
	}

	c := NewShardPlanCache("spmm.test")
	var builds atomic.Int64

	// First pass misses per shard; second pass hits with the same CSRs.
	for pass := 0; pass < 2; pass++ {
		for i, adj := range extracted {
			if _, err := c.Plan(i, adj, buildCounter(&builds)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := builds.Load(); got != int64(len(shards)) {
		t.Fatalf("%d builds over 2 passes, want one per shard (%d)", got, len(shards))
	}
	s := c.Stats()
	if s.Misses != uint64(len(shards)) || s.Hits != uint64(len(shards)) {
		t.Fatalf("stats = %+v, want %d misses and %d hits", s, len(shards), len(shards))
	}

	// Re-materialized shard 0 (new CSR pointer): the stale plan must not be
	// hit, so the shard rebuilds.
	fresh := partition.ExtractShard(a, shards[0])
	if _, err := c.Plan(0, fresh, buildCounter(&builds)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != uint64(len(shards))+1 {
		t.Fatalf("re-materialized shard did not rebuild: %d misses, want %d", got, len(shards)+1)
	}
}

// Two adapters with the same label must not share a plan: each instance
// holds its own.
func TestShardPlanCacheInstancesIsolated(t *testing.T) {
	a := testGraph(t, 61, 20, 3)
	adj := partition.ExtractShard(a, partition.EdgeShards(a, a.NNZ())[0])

	c1 := NewShardPlanCache("same.label")
	c2 := NewShardPlanCache("same.label")
	var b1, b2 atomic.Int64
	if _, err := c1.Plan(0, adj, buildCounter(&b1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Plan(0, adj, buildCounter(&b2)); err != nil {
		t.Fatal(err)
	}
	if b1.Load() != 1 || b2.Load() != 1 {
		t.Fatalf("instances shared a plan: builds %d/%d, want 1/1", b1.Load(), b2.Load())
	}
}

// testShardSource serves an in-memory CSR as shards for the executor
// round-trip below.
type testShardSource struct {
	a      *sparse.CSR
	shards []partition.EdgeShard
	cache  []*sparse.CSR
}

func newTestShardSource(a *sparse.CSR, targetEdges int) *testShardSource {
	shards := partition.EdgeShards(a, targetEdges)
	return &testShardSource{a: a, shards: shards, cache: make([]*sparse.CSR, len(shards))}
}

func (s *testShardSource) Dims() (int, int, int64) {
	return s.a.NumRows, s.a.NumCols, int64(s.a.NNZ())
}
func (s *testShardSource) NumShards() int             { return len(s.shards) }
func (s *testShardSource) ShardRows(i int) (int, int) { return s.shards[i].RowLo, s.shards[i].RowHi }
func (s *testShardSource) ShardNNZ(i int) int64       { return int64(s.shards[i].NNZ()) }
func (s *testShardSource) Degree(r int) int64         { return int64(s.a.RowPtr[r+1] - s.a.RowPtr[r]) }
func (s *testShardSource) Pin(ctx context.Context, i int) (*sparse.CSR, func(), error) {
	if s.cache[i] == nil {
		s.cache[i] = partition.ExtractShard(s.a, s.shards[i])
	}
	return s.cache[i], func() {}, nil
}

// The adapter must satisfy the executor contract end to end: a sharded
// SpMM through ShardPlanCache returns the same result as the reference
// and builds one plan per shard.
func TestShardPlanCacheDrivesShardedSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	adj := testGraph(t, 62, 30, 4)
	src := newTestShardSource(adj, 16)
	x := randT(rng, 30, 5)
	udf := expr.CopySrc(30, 5)

	c := NewShardPlanCache("spmm.outofcore")
	k, err := core.BuildShardedSpMM(src, udf, []*tensor.Tensor{x}, core.AggSum, nil, core.Options{Target: core.CPU}, c)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(30, 5)
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}
	want, err := core.ReferenceSpMM(adj, udf, []*tensor.Tensor{x}, core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-4) {
		t.Fatalf("sharded SpMM through ShardPlanCache diverges, max diff %v", out.MaxAbsDiff(want))
	}
	if got := c.Stats().Misses; got != uint64(src.NumShards()) {
		t.Fatalf("%d plans built, want one per shard (%d)", got, src.NumShards())
	}
}

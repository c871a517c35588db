package dgl

import (
	"featgraph/internal/core"
	"featgraph/internal/sparse"
)

// ShardPlanCache is a core.ShardPlanner whose traffic reads as CacheStats:
// one kernel per shard (core.ShardPlans), each replaced in place when its
// shard is re-materialized. The kernels belong to the cache and are
// released with it.
type ShardPlanCache struct {
	plans core.ShardPlans
}

// NewShardPlanCache returns an empty planner. kind names the executor it
// serves (e.g. "spmm.outofcore") at the call site; every instance is
// separate, so two caches never share a kernel.
func NewShardPlanCache(kind string) *ShardPlanCache { return &ShardPlanCache{} }

// Plan implements core.ShardPlanner.
func (c *ShardPlanCache) Plan(shard int, adj *sparse.CSR, build func() (core.Kernel, error)) (core.Kernel, error) {
	return c.plans.Plan(shard, adj, build)
}

// Invalidate does nothing. The kernels belong to the cache, so dropping
// the cache releases them and the shard arrays they alias.
func (c *ShardPlanCache) Invalidate() {}

// Stats returns the cache's counters: Misses one per kernel built, Hits
// one per Plan call served by a held kernel.
func (c *ShardPlanCache) Stats() CacheStats {
	hits, misses := c.plans.Counts()
	return CacheStats{Hits: hits, Misses: misses}
}

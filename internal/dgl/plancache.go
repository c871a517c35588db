package dgl

import (
	"container/list"
	"sync"

	"featgraph/internal/core"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// Process-wide plan-cache metrics, mirroring the per-Graph CacheStats for
// scrape-style observation (the per-Graph counters answer "did MY loop
// reuse plans"; these answer "how is the shared cache behaving overall").
var (
	mPlanHits = telemetry.NewCounter("featgraph_plancache_hits_total", "",
		"Plan-cache fetches served from the cache.")
	mPlanMisses = telemetry.NewCounter("featgraph_plancache_misses_total", "",
		"Plan-cache fetches that had to build a kernel.")
	mPlanEvictions = telemetry.NewCounter("featgraph_plancache_evictions_total", "",
		"Plans evicted by the LRU cap.")
)

func init() {
	telemetry.NewGaugeFunc("featgraph_plancache_entries", "",
		"Compiled kernel plans currently cached.",
		func() float64 { return float64(planCacheLen()) })
}

// The kernel plan cache. Building a FeatGraph kernel runs validation, UDF
// compilation, pattern recognition, graph partitioning, and chunk-schedule
// construction — per-topology work the paper amortizes over a whole training
// run (§IV-B). The cache makes that amortization explicit and observable:
// ops register their plans on construction (misses) and re-fetch them on
// every ApplyCtx (hits), so epochs 2..N of a training loop never rebuild a
// kernel, and a model constructed twice over the same graph and buffers
// reuses the first model's compiled plans.
//
// Keying. A plan is identified by everything that determines its
// compilation: the op kind, the topology address — (identity, version,
// role) from sparse.CSR.Identity/Version, so two snapshots of one mutable
// graph never collide and two materializations of the same snapshot
// version share plans — the identity of the input buffers the kernel is
// bound to, the feature width, the aggregation operator, and the full
// scheduling configuration (target, threads, partitions, FDS tile factor,
// device). A static CSR gets a process-unique lazy identity at version 0,
// which reproduces the old pointer-keyed behavior exactly; CSRs published
// by the delta engine carry (engine identity, snapshot version), so plans
// follow the version, and InvalidateTopology drops precisely the plans of
// a version whose last snapshot drained. Buffer identity is part of the
// key because a compiled kernel reads its inputs from the exact tensors
// it was built against; two ops with distinct staging buffers can never
// share a plan, which is what makes cache hits unconditionally safe. A
// shape change allocates new buffers and therefore new keys: stale plans
// miss instead of corrupting.
//
// Eviction. The cache is a process-wide LRU bounded by PlanCacheCap;
// inserting past the cap evicts the least-recently-used plan. Hit/miss/
// eviction counters are accumulated per Graph (Graph.PlanCache) so a
// training loop can assert its steady state reuses plans.

// PlanCacheCap is the maximum number of compiled kernel plans retained by
// the process-wide cache.
const PlanCacheCap = 128

// CacheStats counts plan-cache traffic. Counters accumulate per Graph
// (the cache itself is process-wide) and are zeroed by Graph.ResetStats.
//
// Eviction attribution: Evictions counts LRU evictions performed while
// inserting on behalf of this graph. If graph B's insert pushes the cache
// past PlanCacheCap, the eviction is charged to B even when the evicted
// plan was compiled for graph A — the counter answers "how much cache
// pressure did my inserts cause", not "how many of my plans were lost".
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// topoKey addresses one graph topology for cache keying: the identity and
// snapshot version of the adjacency (sparse.CSR.Identity/Version) plus a
// role bit separating a graph's forward adjacency from its transpose,
// which share the adjacency's (identity, version) so that version-precise
// invalidation catches both.
type topoKey struct {
	ident uint64
	ver   uint64
	role  uint8 // roleAdj or roleAdjT
}

const (
	roleAdj  = uint8(0)
	roleAdjT = uint8(1)
)

// planKey identifies one compiled kernel plan.
type planKey struct {
	kind     string         // op kind and role, e.g. "copyagg.fwd"
	topo     topoKey        // topology address (identity, version, role)
	in0, in1 *tensor.Tensor // bound input buffer identities (in1 may be nil)
	d        int            // feature width
	agg      core.AggOp
	opts     core.Options // full scheduling configuration
	tile     int          // FDS feature tile factor
	shard    int          // shard index for out-of-core plans (0 otherwise)
}

type planEntry struct {
	key    planKey
	kernel core.Kernel
}

var planCache = struct {
	mu      sync.Mutex
	entries map[planKey]*list.Element
	lru     list.List // front = most recently used
}{entries: make(map[planKey]*list.Element)}

// Stats returns a consistent snapshot of the graph's plan-cache counters.
// The counters are written under the cache mutex, so this accessor — not a
// bare read of the PlanCache field — is the race-free way to observe them
// while other goroutines apply ops on the same graph.
func (g *Graph) Stats() CacheStats {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	return g.PlanCache
}

// resetPlanCacheStats zeroes the counters under the same lock that guards
// their writers, keeping Graph.ResetStats safe to call concurrently with
// ApplyCtx.
func (g *Graph) resetPlanCacheStats() {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	g.PlanCache = CacheStats{}
}

// planKeyFor assembles the cache key for a plan of this graph. adj must
// be g.adj or g.adjT; the transpose is addressed by the adjacency's
// (identity, version) with the role bit flipped, because it is a
// deterministic derivation of the same topology version.
func (g *Graph) planKeyFor(kind string, adj *sparse.CSR, in0, in1 *tensor.Tensor, d int, agg core.AggOp) planKey {
	role := roleAdj
	if adj == g.adjT {
		role = roleAdjT
	}
	return planKey{
		kind: kind,
		topo: topoKey{ident: g.adj.Identity(), ver: g.adj.Version(), role: role},
		in0:  in0, in1: in1, d: d, agg: agg,
		opts: g.coreOptions(), tile: g.cfg.FeatureTileFactor,
	}
}

// topoKeyFor addresses an arbitrary adjacency (shard plans) at role 0.
func topoKeyFor(adj *sparse.CSR) topoKey {
	return topoKey{ident: adj.Identity(), ver: adj.Version(), role: roleAdj}
}

// plan returns the cached kernel for key, building and inserting it on a
// miss. Build errors are returned without polluting the cache. Both
// template types travel as core.Kernel, so one cache and one fetch path
// serve SpMM and SDDMM plans alike.
func (g *Graph) plan(key planKey, build func() (core.Kernel, error)) (core.Kernel, error) {
	return cachePlan(&g.PlanCache, key, build)
}

// cachePlan is the shared fetch-or-build path over the process-wide cache,
// charging traffic to the caller's stats (a Graph's PlanCache counters, or
// a ShardPlanCache's). stats is written under the cache mutex.
func cachePlan(stats *CacheStats, key planKey, build func() (core.Kernel, error)) (core.Kernel, error) {
	metrics := telemetry.Enabled()
	planCache.mu.Lock()
	if el, ok := planCache.entries[key]; ok {
		planCache.lru.MoveToFront(el)
		stats.Hits++
		k := el.Value.(*planEntry).kernel
		planCache.mu.Unlock()
		if metrics {
			mPlanHits.Inc()
		}
		return k, nil
	}
	stats.Misses++
	planCache.mu.Unlock()
	if metrics {
		mPlanMisses.Inc()
	}

	// Build outside the lock: compilation can be slow and must not block
	// unrelated fetches. Two goroutines racing to build the same key both
	// succeed; the second insert wins and the duplicate is garbage.
	kernel, err := build()
	if err != nil {
		return nil, err
	}
	evicted := uint64(0)
	planCache.mu.Lock()
	if el, ok := planCache.entries[key]; ok {
		planCache.lru.MoveToFront(el)
		el.Value.(*planEntry).kernel = kernel
	} else {
		planCache.entries[key] = planCache.lru.PushFront(&planEntry{key: key, kernel: kernel})
		for planCache.lru.Len() > PlanCacheCap {
			oldest := planCache.lru.Back()
			delete(planCache.entries, oldest.Value.(*planEntry).key)
			planCache.lru.Remove(oldest)
			stats.Evictions++
			evicted++
		}
	}
	planCache.mu.Unlock()
	if metrics && evicted > 0 {
		mPlanEvictions.Add(evicted)
	}
	return kernel, nil
}

// planCacheDelete removes one plan by exact key, if cached.
func planCacheDelete(key planKey) {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	if el, ok := planCache.entries[key]; ok {
		delete(planCache.entries, key)
		planCache.lru.Remove(el)
	}
}

// mustPlan re-fetches a plan that op construction already built once; a
// failure here means the key's build stopped working, a programming error.
func (g *Graph) mustPlan(key planKey, build func() (core.Kernel, error)) core.Kernel {
	k, err := g.plan(key, build)
	if err != nil {
		panic("dgl: kernel plan rebuild failed: " + err.Error())
	}
	return k
}

// InvalidatePlans drops every cached plan compiled against this graph's
// topology version (adjacency and transpose roles alike), returning how
// many were removed. Use it when replacing a graph's feature shapes
// wholesale (old plans would otherwise linger until LRU eviction; they
// can never be wrongly hit, since new buffers produce new keys).
func (g *Graph) InvalidatePlans() int {
	return InvalidateTopology(g.adj.Identity(), g.adj.Version())
}

// InvalidateTopology drops every cached plan keyed to version ver of the
// topology with the given identity, returning how many were removed. The
// delta engine's reclaim hook calls this when a snapshot's last reference
// drains — precise invalidation of exactly the dead version, leaving
// plans for live versions of the same graph untouched.
func InvalidateTopology(ident, ver uint64) int {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	removed := 0
	for el := planCache.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*planEntry)
		if e.key.topo.ident == ident && e.key.topo.ver == ver {
			delete(planCache.entries, e.key)
			planCache.lru.Remove(el)
			removed++
		}
		el = next
	}
	return removed
}

// planCacheLen reports the number of cached plans (for tests).
func planCacheLen() int {
	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	return planCache.lru.Len()
}

// Sharded (out-of-core) execution: the SpMM template applied shard by
// shard to a graph that never exists as one in-memory CSR.
//
// A ShardSource hands out contiguous destination-row shards (local rows,
// global columns and edge ids — internal/graphio.ShardedCSR is the
// on-disk implementation). The executor streams through the shards with
// partial SpMM kernels (see the shardSpec hook in spmm.go) and owns the
// cross-shard aggregation algebra: each attempt prefills the output with
// the aggregation identity, each shard accumulates into its
// destination-row slice (a shard boundary may split a row, so two shards
// can touch the same output row — which is exactly why partial kernels
// must not prefill or finalize), and one global finalization pass divides
// means by the global degree and zeroes isolated vertices.
//
// Per-shard kernels are built lazily and memoized through a ShardPlanner,
// so epoch 2..N of a training loop rebuilds a shard's kernel only if the
// residency cache evicted and re-materialized that shard in between.
package core

import (
	"context"
	"fmt"
	"sync"

	"featgraph/internal/codegen"
	"featgraph/internal/expr"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// shardSpec configures a partial kernel build: the kernel executes one
// shard's local CSR but validates inputs against (and indexes Dst-bound
// tensors with) the global graph.
type shardSpec struct {
	dstBase    int // global destination row of local row 0
	globalRows int
	globalCols int
	globalNNZ  int64
}

// ShardSource is a graph served as contiguous destination-row shards.
// Shard i covers global rows [rowLo, rowHi) and a contiguous edge range;
// a pinned shard is a local-row CSR (row 0 = global row rowLo) whose
// ColIdx and EID stay global. Shard boundaries may split a row: the row's
// edges are divided between the adjacent shards, and Degree reports the
// global in-degree the executor finalizes with.
type ShardSource interface {
	// Dims returns the global graph dimensions.
	Dims() (numRows, numCols int, nnz int64)
	// NumShards returns the shard count.
	NumShards() int
	// ShardRows returns shard i's destination-row span [rowLo, rowHi).
	ShardRows(i int) (rowLo, rowHi int)
	// ShardNNZ returns shard i's edge count.
	ShardNNZ(i int) int64
	// Degree returns global destination row r's in-degree.
	Degree(r int) int64
	// Pin materializes shard i and returns it with a release function the
	// caller must invoke when done. The CSR must pass sparse.CSR.Validate:
	// the partial kernels built over it do not validate it again. While
	// pinned the CSR must not change; once released, the source may reuse
	// its arrays, so the caller must not read it after release.
	Pin(ctx context.Context, i int) (*sparse.CSR, func(), error)
}

// ShardPlanner memoizes per-shard kernels across runs. Plan returns the
// cached kernel for (shard, adj) or invokes build and caches the result;
// adj is the identity key — a re-materialized shard (new CSR pointer)
// must rebuild, because the cached kernel's precomputed schedule aliases
// the old arrays.
type ShardPlanner interface {
	Plan(shard int, adj *sparse.CSR, build func() (Kernel, error)) (Kernel, error)
}

// ShardPlans is the ShardPlanner: one kernel per shard, owned by whoever
// holds the ShardPlans. Replacing a stale entry drops the old kernel (and
// its reference to the evicted shard's arrays), so at most one kernel per
// shard stays live. An executor built without a planner gets its own; a
// caller passes one to share it between executors or to read its counts.
// The zero value is ready to use.
type ShardPlans struct {
	mu           sync.Mutex
	plans        map[int]shardPlan
	hits, misses uint64
}

type shardPlan struct {
	adj *sparse.CSR
	k   Kernel
}

// Plan implements ShardPlanner.
func (p *ShardPlans) Plan(shard int, adj *sparse.CSR, build func() (Kernel, error)) (Kernel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.plans[shard]; ok && pl.adj == adj {
		p.hits++
		return pl.k, nil
	}
	k, err := build()
	if err != nil {
		return nil, err
	}
	p.misses++
	if p.plans == nil {
		p.plans = make(map[int]shardPlan)
	}
	p.plans[shard] = shardPlan{adj: adj, k: k}
	return k, nil
}

// Counts returns how many Plan calls reused a kernel (hits) and how many
// built one (misses).
func (p *ShardPlans) Counts() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// ShardedSpMM is a generalized SpMM kernel over a ShardSource: the same
// semantics as BuildSpMM over the assembled graph, computed one shard at
// a time within the source's residency budget. The executor owns the
// serving policy — the whole sharded pass is one governed run — and
// per-shard partial kernels execute their CPU schedule directly under it,
// so a shard is never admitted, retried or counted a second time.
type ShardedSpMM struct {
	governed
	src     ShardSource
	udf     *expr.UDF
	inputs  []*tensor.Tensor
	agg     AggOp
	fds     *schedule.FDS
	planner ShardPlanner

	numRows, numCols int
	nnz              int64
	pattern          string
	finChunks        []partition.Range // uniform row chunks of the global finalization
}

// BuildShardedSpMM builds a sharded SpMM kernel. planner may be nil for
// the default per-executor memoization; fds may be nil. Options carry the
// executor's serving policy and the per-shard scheduling knobs; the
// target must be CPU.
func BuildShardedSpMM(src ShardSource, udf *expr.UDF, inputs []*tensor.Tensor, agg AggOp, fds *schedule.FDS, opts Options, planner ShardPlanner) (*ShardedSpMM, error) {
	if opts.Target != CPU {
		return nil, fmt.Errorf("core: sharded kernels run on CPU only")
	}
	if len(udf.OutAxes) == 0 {
		return nil, fmt.Errorf("core: UDF must have at least one output axis")
	}
	if err := fds.Validate(udf); err != nil {
		return nil, err
	}
	k := &ShardedSpMM{src: src, udf: udf, inputs: inputs, agg: agg, fds: fds, planner: planner}
	k.numRows, k.numCols, k.nnz = src.Dims()
	if err := validateBindings(k.numRows, k.numCols, k.nnz, udf, inputs); err != nil {
		return nil, err
	}
	compiled, err := codegen.Compile(udf, inputs)
	if err != nil {
		return nil, err
	}
	if k.planner == nil {
		k.planner = &ShardPlans{}
	}
	k.pattern = codegen.Recognize(udf, inputs).Pattern.String()
	outLen := compiled.OutLen()
	k.init("spmm", "sharded SpMM", spmmMetrics, opts, k.numRows, outLen)
	k.rowsPerRun = uint64(k.numRows) * uint64(len(partition.FeatureTiles(outLen, fds.SplitFactor(udf.OutAxes[0]))))
	// Admission estimate: the global output surface; per-shard scratch is
	// bounded by the source's residency budget, which charges the ledger
	// itself as shards materialize.
	k.memEstimate = 4 * int64(k.numRows) * int64(outLen)
	k.finChunks = uniformChunks(k.numRows, numChunksFor(max(opts.NumThreads, 1), k.numRows, k.numRows))
	return k, nil
}

// runShard pins shard i, plans its partial kernel and runs that kernel's
// CPU schedule into the shard's row slice of out.
func (k *ShardedSpMM) runShard(ctx context.Context, i int, out *tensor.Tensor) (RunStats, error) {
	adj, unpin, err := k.src.Pin(ctx, i)
	if err != nil {
		return RunStats{}, err
	}
	defer unpin()
	rowLo, rowHi := k.src.ShardRows(i)
	kern, err := k.planner.Plan(i, adj, func() (Kernel, error) {
		return buildSpMM(adj, k.udf, k.inputs, k.agg, k.fds, k.opts,
			&shardSpec{dstBase: rowLo, globalRows: k.numRows, globalCols: k.numCols, globalNNZ: k.nnz})
	})
	if err != nil {
		return RunStats{}, err
	}
	sub, ok := kern.(backend)
	if !ok {
		return RunStats{}, fmt.Errorf("core: %s shard %d: planner returned a %T it did not build", k.label, i, kern)
	}
	stride := out.RowStride()
	stats, err := sub.runCPU(ctx, tensor.FromSlice(out.Data()[rowLo*stride:rowHi*stride], rowHi-rowLo, stride))
	if err != nil {
		return RunStats{}, fmt.Errorf("core: %s shard %d: %w", k.label, i, err)
	}
	return stats, nil
}

// runGPU is never reached: BuildShardedSpMM rejects every target but CPU,
// so the governed run has no device path to attempt.
func (k *ShardedSpMM) runGPU(context.Context, *tensor.Tensor) (RunStats, error) {
	return RunStats{}, fmt.Errorf("core: sharded kernels run on CPU only")
}

// Pattern returns the recognized UDF pattern.
func (k *ShardedSpMM) Pattern() string { return k.pattern }

// OutShape returns the required output tensor shape.
func (k *ShardedSpMM) OutShape() (rows, cols int) { return k.numRows, k.outLen }

// Describe returns a one-line description of the built kernel.
func (k *ShardedSpMM) Describe() string {
	return fmt.Sprintf("spmm-sharded{agg:%s pattern:%s rows:%d nnz:%d out:%d shards:%d}",
		k.agg, k.pattern, k.numRows, k.nnz, k.outLen, k.src.NumShards())
}

// Run executes the kernel into out (Run = RunCtx under context.Background()).
func (k *ShardedSpMM) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the sharded SpMM into out, a [NumRows, outLen] tensor,
// under ctx and the executor's serving policy; see governed.go. Each shard
// executes a partial template kernel into its row slice of out, and a final
// pass applies the global aggregation fix-ups (mean normalization by global
// degree, isolated vertices to zero). On any error the contents of out are
// undefined.
func (k *ShardedSpMM) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// runCPU is one attempt at the whole sharded pass.
func (k *ShardedSpMM) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	// Prefill the aggregation identity row-parallel, at least 64 KiB a span.
	odata, stride, id := out.Data(), out.RowStride(), k.agg.identity()
	workpool.Rows(k.numRows, (16<<10)/max(stride, 1), max(k.opts.NumThreads, 1), func(lo, hi int) {
		rows := odata[lo*stride : hi*stride]
		for i := range rows {
			rows[i] = id
		}
	})
	var stats RunStats
	for i := 0; i < k.src.NumShards(); i++ {
		if k.src.ShardNNZ(i) == 0 {
			continue // no edges: nothing to accumulate, no output rows
		}
		sstats, err := k.runShard(ctx, i, out)
		if err != nil {
			return RunStats{}, err
		}
		stats.EdgesProcessed += sstats.EdgesProcessed
		stats.ChunksStolen += sstats.ChunksStolen
	}

	// Global finalization across shard boundaries: split rows have
	// accumulated contributions from both neighbors by now, so the global
	// degree is the right normalizer everywhere.
	var fin engineState
	fin.arm(workerSite{kernel: "spmm-sharded", target: CPU, tile: -1, part: -1}, func(_, ci int) {
		for r := k.finChunks[ci].Lo; r < k.finChunks[ci].Hi; r++ {
			deg := k.src.Degree(r)
			row := odata[r*stride : (r+1)*stride]
			if deg == 0 {
				clear(row)
				continue
			}
			if k.agg == AggMean {
				inv := 1 / float32(deg)
				for f := range row {
					row[f] *= inv
				}
			}
		}
	})
	fin.rc.reset(ctx)
	workpool.Default().Run(&fin.job, len(k.finChunks), max(k.opts.NumThreads, 1))
	return stats, fin.rc.verdict()
}

// Compile-time interface check: the sharded executor is a Kernel.
var _ Kernel = (*ShardedSpMM)(nil)

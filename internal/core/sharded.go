// Sharded (out-of-core) execution: the SpMM/SDDMM templates applied shard
// by shard to a graph that never exists as one in-memory CSR.
//
// A ShardSource hands out contiguous destination-row shards (local rows,
// global columns and edge ids — internal/graphio.ShardedCSR is the
// on-disk implementation). The executors stream through the shards with
// partial template kernels (see the shardSpec hooks in spmm.go/sddmm.go)
// and own the cross-shard aggregation algebra:
//
//   - SpMM: each attempt prefills the output with the aggregation identity,
//     each shard accumulates into its destination-row slice (a shard
//     boundary may split a row, so two shards can touch the same output
//     row — which is exactly why partial kernels must not prefill or
//     finalize), and one global finalization pass divides means by the
//     global degree and zeroes isolated vertices.
//   - SDDMM: the output is indexed by global edge id, which shard CSRs
//     carry verbatim, so each shard writes its edges into the full output
//     tensor directly; the executor zeroes it at the start of an attempt.
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
// global in-degree the executors finalize with.
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

// shardedBase is the state the two sharded executors share. The executor
// owns the serving policy — the whole sharded pass is one governed run —
// and per-shard partial kernels execute their CPU schedule directly under
// it, so a shard is never admitted, retried or counted a second time.
type shardedBase struct {
	governed
	src     ShardSource
	udf     *expr.UDF
	inputs  []*tensor.Tensor
	fds     *schedule.FDS
	planner ShardPlanner

	numRows, numCols int
	nnz              int64
	pattern          string
}

// build validates the executor's inputs against the global graph and
// returns the UDF's output length.
func (s *shardedBase) build(src ShardSource, udf *expr.UDF, inputs []*tensor.Tensor, fds *schedule.FDS, opts Options, planner ShardPlanner) (int, error) {
	if opts.Target != CPU {
		return 0, fmt.Errorf("core: sharded kernels run on CPU only")
	}
	if len(udf.OutAxes) == 0 {
		return 0, fmt.Errorf("core: UDF must have at least one output axis")
	}
	if err := fds.Validate(udf); err != nil {
		return 0, err
	}
	s.numRows, s.numCols, s.nnz = src.Dims()
	if err := validateBindings(s.numRows, s.numCols, s.nnz, udf, inputs); err != nil {
		return 0, err
	}
	compiled, err := codegen.Compile(udf, inputs)
	if err != nil {
		return 0, err
	}
	s.src, s.udf, s.inputs, s.fds = src, udf, inputs, fds
	s.planner = planner
	if s.planner == nil {
		s.planner = &ShardPlans{}
	}
	s.pattern = codegen.Recognize(udf, inputs).Pattern.String()
	return compiled.OutLen(), nil
}

// runShards is the shard loop of one attempt: every non-empty shard is
// pinned in turn, its partial kernel planned through build, and that
// kernel's CPU schedule run into view(rowLo, rowHi); the per-shard
// accounting is summed into the returned stats.
func (s *shardedBase) runShards(ctx context.Context,
	build func(adj *sparse.CSR, sh *shardSpec) (Kernel, error),
	view func(rowLo, rowHi int) *tensor.Tensor) (RunStats, error) {
	var stats RunStats
	for i := 0; i < s.src.NumShards(); i++ {
		if s.src.ShardNNZ(i) == 0 {
			continue // no edges: nothing to accumulate, no output rows
		}
		sstats, err := s.runShard(ctx, i, build, view)
		if err != nil {
			return RunStats{}, err
		}
		stats.EdgesProcessed += sstats.EdgesProcessed
		stats.ChunksStolen += sstats.ChunksStolen
	}
	return stats, nil
}

func (s *shardedBase) runShard(ctx context.Context, i int,
	build func(adj *sparse.CSR, sh *shardSpec) (Kernel, error),
	view func(rowLo, rowHi int) *tensor.Tensor) (RunStats, error) {
	adj, unpin, err := s.src.Pin(ctx, i)
	if err != nil {
		return RunStats{}, err
	}
	defer unpin()
	rowLo, rowHi := s.src.ShardRows(i)
	kern, err := s.planner.Plan(i, adj, func() (Kernel, error) {
		return build(adj, &shardSpec{dstBase: rowLo, globalRows: s.numRows, globalCols: s.numCols, globalNNZ: s.nnz})
	})
	if err != nil {
		return RunStats{}, err
	}
	sub, ok := kern.(backend)
	if !ok {
		return RunStats{}, fmt.Errorf("core: %s shard %d: planner returned a %T it did not build", s.label, i, kern)
	}
	stats, err := sub.runCPU(ctx, view(rowLo, rowHi))
	if err != nil {
		return RunStats{}, fmt.Errorf("core: %s shard %d: %w", s.label, i, err)
	}
	return stats, nil
}

// runGPU is never reached: build rejects every target but CPU, so the
// governed run has no device path to attempt.
func (s *shardedBase) runGPU(context.Context, *tensor.Tensor) (RunStats, error) {
	return RunStats{}, fmt.Errorf("core: sharded kernels run on CPU only")
}

// Pattern returns the recognized UDF pattern.
func (s *shardedBase) Pattern() string { return s.pattern }

// --- Sharded SpMM ---

// ShardedSpMM is a generalized SpMM kernel over a ShardSource: the same
// semantics as BuildSpMM over the assembled graph, computed one shard at
// a time within the source's residency budget.
type ShardedSpMM struct {
	shardedBase
	agg       AggOp
	finChunks []partition.Range // uniform row chunks of the global finalization
}

// BuildShardedSpMM builds a sharded SpMM kernel. planner may be nil for
// the default per-executor memoization; fds may be nil. Options carry the
// executor's serving policy and the per-shard scheduling knobs; the
// target must be CPU.
func BuildShardedSpMM(src ShardSource, udf *expr.UDF, inputs []*tensor.Tensor, agg AggOp, fds *schedule.FDS, opts Options, planner ShardPlanner) (*ShardedSpMM, error) {
	k := &ShardedSpMM{agg: agg}
	outLen, err := k.build(src, udf, inputs, fds, opts, planner)
	if err != nil {
		return nil, err
	}
	k.init("spmm", "sharded SpMM", spmmMetrics, opts, k.numRows, outLen)
	k.rowsPerRun = uint64(k.numRows) * uint64(len(partition.FeatureTiles(outLen, fds.SplitFactor(udf.OutAxes[0]))))
	// Admission estimate: the global output surface; per-shard scratch is
	// bounded by the source's residency budget, which charges the ledger
	// itself as shards materialize.
	k.memEstimate = 4 * int64(k.numRows) * int64(outLen)
	k.finChunks = uniformChunks(k.numRows, numChunksFor(max(opts.NumThreads, 1), k.numRows, k.numRows))
	return k, nil
}

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
	stats, err := k.runShards(ctx,
		func(adj *sparse.CSR, sh *shardSpec) (Kernel, error) {
			return buildSpMM(adj, k.udf, k.inputs, k.agg, k.fds, k.opts, sh)
		},
		func(rowLo, rowHi int) *tensor.Tensor {
			return tensor.FromSlice(odata[rowLo*stride:rowHi*stride], rowHi-rowLo, stride)
		})
	if err != nil {
		return RunStats{}, err
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

// --- Sharded SDDMM ---

// ShardedSDDMM is a generalized SDDMM kernel over a ShardSource: the same
// semantics as BuildSDDMM over the assembled graph, computed one shard at
// a time within the source's residency budget.
type ShardedSDDMM struct {
	shardedBase
}

// BuildShardedSDDMM builds a sharded SDDMM kernel; see BuildShardedSpMM
// for the parameter conventions. The output is one row per global edge,
// so the global edge count must fit an in-memory tensor.
func BuildShardedSDDMM(src ShardSource, udf *expr.UDF, inputs []*tensor.Tensor, fds *schedule.FDS, opts Options, planner ShardPlanner) (*ShardedSDDMM, error) {
	k := &ShardedSDDMM{}
	outLen, err := k.build(src, udf, inputs, fds, opts, planner)
	if err != nil {
		return nil, err
	}
	k.init("sddmm", "sharded SDDMM", sddmmMetrics, opts, int(k.nnz), outLen)
	if int64(k.outRows) != k.nnz || k.outRows < 0 {
		return nil, fmt.Errorf("core: sharded SDDMM output needs %d rows, beyond addressable tensors", k.nnz)
	}
	k.memEstimate = 4 * k.nnz * int64(outLen)
	return k, nil
}

// OutShape returns the required output tensor shape.
func (k *ShardedSDDMM) OutShape() (rows, cols int) { return k.outRows, k.outLen }

// Describe returns a one-line description of the built kernel.
func (k *ShardedSDDMM) Describe() string {
	return fmt.Sprintf("sddmm-sharded{pattern:%s rows:%d nnz:%d out:%d shards:%d}",
		k.pattern, k.numRows, k.nnz, k.outLen, k.src.NumShards())
}

// Run executes the kernel into out (Run = RunCtx under context.Background()).
func (k *ShardedSDDMM) Run(out *tensor.Tensor) (RunStats, error) {
	return k.RunCtx(context.Background(), out)
}

// RunCtx executes the sharded SDDMM into out, an [NNZ, outLen] tensor
// indexed by global edge id, under ctx and the executor's serving policy;
// see governed.go. The executor zeroes out, then each shard's partial
// kernel writes its edges' rows directly (shard CSRs carry global edge
// ids). On any error the contents of out are undefined.
func (k *ShardedSDDMM) RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	return k.run(ctx, k, out)
}

// runCPU is one attempt at the whole sharded pass.
func (k *ShardedSDDMM) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	out.Zero()
	return k.runShards(ctx,
		func(adj *sparse.CSR, sh *shardSpec) (Kernel, error) {
			return buildSDDMM(adj, k.udf, k.inputs, k.fds, k.opts, sh)
		},
		func(int, int) *tensor.Tensor { return out })
}

// Compile-time interface checks: the sharded executors are Kernels.
var (
	_ Kernel = (*ShardedSpMM)(nil)
	_ Kernel = (*ShardedSDDMM)(nil)
)

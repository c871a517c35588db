package serve

import (
	"fmt"
	"math/bits"
	"sync"

	"featgraph/internal/admission"
	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// The serving plan pool: compiled kernel reuse across sampled blocks.
//
// A dgl op owns kernels bound to its own adjacency and buffers, which is
// right for training (one topology, thousands of epochs) and useless for
// serving, where every batch samples a fresh block — identical in shape
// class, unique in pointer. This pool is the only plan structure shared
// between callers. Following Morphling's observation that small
// GNN launches are dominated by per-launch setup and that kernels tuned
// per (graph stats, feature width) bucket transfer across graphs, the pool
// keys compiled kernels by a rounded shape class {rows, cols, nnz, width}
// instead.
//
// A class plan owns capacity-sized staging storage: a synthetic CSR at the
// class's row/col/nnz capacities, a [colsCap, width] input tensor, and a
// [rowsCap, width] output, with one mean-aggregation CopySrc SpMM compiled
// against them. Unpartitioned CPU kernels alias the adjacency arrays and
// read RowPtr/ColIdx at run time (build-time state is row-range chunking,
// which any same-capacity topology still covers), so staging a block means
// copying its RowPtr/ColIdx into the class CSR in place, padding the
// RowPtr tail with nnz (empty rows the aggregation zero-fills and the
// batcher never reads). The CopySrc+mean fast path reads neither EID nor
// Val, so those stay untouched.
//
// Plans are exclusive while held: acquire pops from a per-class freelist
// (or builds), release pushes back, so concurrent batches on the same
// shape class use distinct plans while sequential batches — the common
// case, since one dispatcher runs batches serially — reuse one compiled
// kernel for every block of matching class.
type planPool struct {
	threads int
	gov     *admission.Governor

	mu   sync.Mutex
	free map[classKey][]*classPlan

	// Pool traffic counters (guarded by mu); exposed through RunInfo so
	// callers can assert steady-state reuse.
	built, reused uint64
}

// classKey is a block shape class: capacities rounded up to powers of two
// (with small floors) so nearby block shapes share one compiled plan.
type classKey struct {
	rows, cols, nnz int
	width           int
}

// classPlan is one compiled kernel with its class-capacity staging storage.
type classPlan struct {
	key    classKey
	adj    *sparse.CSR    // staged topology, capacity shaped
	x      *tensor.Tensor // [colsCap, width] staged source features
	out    *tensor.Tensor // [rowsCap, width] kernel output
	kernel core.Kernel
}

// classFreeCap bounds each class's freelist; beyond it released plans are
// dropped for the GC. Concurrency above the cap just rebuilds.
const classFreeCap = 4

func newPlanPool(threads int, gov *admission.Governor) *planPool {
	return &planPool{threads: threads, gov: gov, free: make(map[classKey][]*classPlan)}
}

// capRound rounds n up to the next power of two below 512 and to the next
// multiple of 512 above, with a floor. Pure doubling wastes up to 2x of
// every kernel's row iteration, output prefill, and mean finalization on
// padding; multiples of 512 cap that waste at ~12% for the block sizes
// batching produces, at the price of a few more compiled classes (which the
// freelist holds anyway).
func capRound(n, floor int) int {
	if n < floor {
		return floor
	}
	if n <= 512 {
		return 1 << bits.Len(uint(n-1))
	}
	return (n + 511) &^ 511
}

// classFor buckets a block shape. nnz is additionally capped at rows*cols:
// a block row never repeats a column (sampling picks distinct edges of a
// duplicate-free CSR), so the capacity topology can always realize it.
func classFor(rows, cols, nnz, width int) classKey {
	k := classKey{rows: capRound(rows, 16), cols: capRound(cols, 16), nnz: capRound(nnz, 64), width: width}
	if m := k.rows * k.cols; k.nnz > m {
		k.nnz = m
	}
	return k
}

// acquire returns an exclusively-held plan for the block shape, reusing a
// freelisted plan of the same class or compiling a new one.
func (pp *planPool) acquire(rows, cols, nnz, width int) (*classPlan, error) {
	key := classFor(rows, cols, nnz, width)
	pp.mu.Lock()
	if lst := pp.free[key]; len(lst) > 0 {
		p := lst[len(lst)-1]
		pp.free[key] = lst[:len(lst)-1]
		pp.reused++
		pp.mu.Unlock()
		return p, nil
	}
	pp.mu.Unlock()

	p, err := pp.build(key)
	if err != nil {
		return nil, err
	}
	pp.mu.Lock()
	pp.built++
	pp.mu.Unlock()
	return p, nil
}

// release returns a plan to its class freelist.
func (pp *planPool) release(p *classPlan) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if lst := pp.free[p.key]; len(lst) < classFreeCap {
		pp.free[p.key] = append(lst, p)
	}
}

// stats snapshots the pool's build/reuse counters.
func (pp *planPool) stats() (built, reused uint64) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.built, pp.reused
}

// build compiles the class kernel against capacity-shaped staging storage,
// using a synthetic valid topology at full capacity (so chunking sees the
// worst-case edge count the class admits).
func (pp *planPool) build(key classKey) (*classPlan, error) {
	p := &classPlan{
		key: key,
		adj: syntheticCSR(key.rows, key.cols, key.nnz),
		x:   tensor.New(key.cols, key.width),
		out: tensor.New(key.rows, key.width),
	}
	udf := expr.CopySrc(key.cols, key.width)
	opts := core.Options{
		Target:     core.CPU,
		NumThreads: pp.threads,
		Admission:  pp.gov,
	}
	k, err := core.BuildSpMM(p.adj, udf, []*tensor.Tensor{p.x}, core.AggMean, nil, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling class %+v kernel: %w", key, err)
	}
	p.kernel = k
	return p, nil
}

// syntheticCSR builds a valid rows×cols topology with exactly nnz edges,
// spread row-round-robin with ascending columns (what FromCOO would
// produce). nnz must be <= rows*cols; classFor guarantees it.
func syntheticCSR(rows, cols, nnz int) *sparse.CSR {
	c := &sparse.CSR{
		NumRows: rows, NumCols: cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, nnz),
		EID:    make([]int32, nnz),
		Val:    make([]float32, nnz),
	}
	base := nnz / rows
	extra := nnz % rows
	pos := 0
	for r := 0; r < rows; r++ {
		take := base
		if r < extra {
			take++
		}
		for j := 0; j < take; j++ {
			c.ColIdx[pos] = int32(j)
			c.EID[pos] = int32(pos)
			c.Val[pos] = 1
			pos++
		}
		c.RowPtr[r+1] = int32(pos)
	}
	return c
}

// stage copies a block's topology and source features into the plan's
// staging storage. srcRows indexes feats by global vertex id when gather
// is set (the input layer); otherwise feats rows are already in block
// source order (deeper layers — the previous layer's output lists its
// destinations in exactly this block's source order) and are copied as a
// prefix verbatim.
func (p *classPlan) stage(blk *sparse.CSR, srcRows []int32, feats *tensor.Tensor, gather bool) {
	r, nnz := blk.NumRows, blk.NNZ()
	copy(p.adj.RowPtr[:r+1], blk.RowPtr)
	tail := p.adj.RowPtr[r+1:]
	for i := range tail {
		tail[i] = int32(nnz)
	}
	copy(p.adj.ColIdx[:nnz], blk.ColIdx)

	width := p.x.Dim(1)
	if !gather {
		copy(p.x.Data()[:len(srcRows)*width], feats.Data()[:len(srcRows)*width])
		return
	}
	xd := p.x.Data()
	for i, v := range srcRows {
		copy(xd[i*width:(i+1)*width], feats.Row(int(v)))
	}
}

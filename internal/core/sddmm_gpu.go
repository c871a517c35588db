package core

import (
	"context"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
	"featgraph/internal/vec"
	"featgraph/internal/workpool"
)

// sddmmGPU holds the GPU-side schedule of an SDDMM kernel: the edge
// parallelization of Figure 7b, where each block processes a set of edges
// (non-zeros) and the threads of a block cooperate on each edge's feature
// computation — by tree reduction for dot products when the FDS asks for
// it (Figure 4a), or across output elements otherwise. Blocks compute with
// the CPU's edge bodies; the schedule decides what they are charged.
type sddmmGPU struct {
	dev        *cudasim.Device
	treeReduce bool
	featPar    bool
	bodyCost   uint64

	states chan *sddmmGPULaunch // reusable launch-state freelist
}

// sddmmGPULaunch is one GPU execution's worth of reusable state; see
// spmmGPULaunch for the pattern.
type sddmmGPULaunch struct {
	k      *SDDMMKernel
	out    *tensor.Tensor
	blocks int
	dot    bool
	kernel func(*cudasim.Block)
	// envs holds each runner slot's compiled-UDF environment for the
	// generic path, made on the slot's first generic block.
	envs []*codegen.Env
	// beacon is the stall watchdog's progress counter (see spmmGPULaunch).
	beacon admission.Beacon
}

func buildSDDMMGPU(k *SDDMMKernel, udf *expr.UDF, fds *schedule.FDS) *sddmmGPU {
	g := &sddmmGPU{
		dev:      k.opts.device(),
		bodyCost: codegen.EstimateCostPerElem(udf),
		states:   make(chan *sddmmGPULaunch, runStatePoolCap),
	}
	if k.redAxis != nil && fds.HasTreeReduce(k.redAxis) {
		g.treeReduce = true
	}
	if r, ok := fds.Binding(udf.OutAxes[0]); ok && r == schedule.ThreadX {
		g.featPar = true
	}
	return g
}

func (k *SDDMMKernel) newGPULaunch() *sddmmGPULaunch {
	st := &sddmmGPULaunch{k: k, envs: make([]*codegen.Env, workpool.Default().MaxRunners())}
	st.kernel = st.block
	return st
}

// block runs one grid block on the dot or the generic path.
func (st *sddmmGPULaunch) block(b *cudasim.Block) {
	if st.dot {
		st.k.gpuDotBlock(b, st.out, st.blocks)
		return
	}
	env := st.envs[b.Slot()]
	if env == nil {
		env = st.k.compiled.NewEnv()
		st.envs[b.Slot()] = env
	}
	st.k.gpuGenericBlock(b, st.out, st.blocks, env)
}

// gpuLaunchDims resolves the SDDMM grid: blocks cover edge groups, threads
// cover the reduction width (tree reduction) or the output tile.
func (k *SDDMMKernel) gpuLaunchDims() (blocks, threads int) {
	nnz := k.adj.NNZ()
	blocks = k.opts.NumBlocks
	if blocks <= 0 {
		blocks = min(nnz, 4096)
	}
	blocks = min(blocks, nnz)
	threads = k.opts.ThreadsPerBlock
	if threads <= 0 {
		switch {
		case k.gpu.treeReduce && k.redAxis != nil:
			threads = min(nextPow2(k.redAxis.Extent), 256)
		case k.gpu.featPar:
			threads = min(nextPow2(k.outLen), 256)
		default:
			threads = 32
		}
	}
	return blocks, min(threads, 1024)
}

func (k *SDDMMKernel) runGPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	nnz := k.adj.NNZ()
	if nnz == 0 {
		return RunStats{}, ctx.Err()
	}
	blocks, threads := k.gpuLaunchDims()
	st := getState(k.gpu.states, k.newGPULaunch)
	defer func() { st.out = nil; putState(k.gpu.states, st) }()
	ctx, w := startWatch(ctx, k.opts.Admission, &st.beacon, "sddmm/gpu")
	defer w.end()
	st.out = out
	st.blocks = blocks
	st.dot = k.match.Pattern == codegen.DotSrcDst

	stats, err := k.gpu.dev.LaunchCtx(ctx, cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads, Progress: st.beacon.Counter()}, st.kernel)
	if err != nil {
		return RunStats{}, deviceError(ctx, err, "sddmm", -1, -1)
	}
	// Nominal traversal count: the single launch visits every edge once.
	return RunStats{SimCycles: stats.SimCycles, EdgesProcessed: uint64(nnz)}, nil
}

// gpuDotBlock runs the dot fast path for one block's edges, vec.Dot of each
// edge's two rows over the whole reduce axis: the CPU path's bits. The two
// schedules differ only in what they charge: tree reduction spreads the
// products across the block's threads and combines them in log depth
// (Figure 7b); the naive strategy, what Gunrock does and Figure 12's
// baseline, runs the dot on one thread.
func (k *SDDMMKernel) gpuDotBlock(b *cudasim.Block, out *tensor.Tensor, blocks int) {
	nnz := k.adj.NNZ()
	x, y, ed := k.match.X, k.match.Y, k.edges
	odata := out.Data()
	d := k.redAxis.Extent
	for e := b.Idx(); e < nnz; e += blocks {
		if b.Cancelled() {
			return
		}
		odata[ed.EID[e]] = vec.Dot(x.Row(int(ed.Col[e]))[:d], y.Row(int(ed.Row[e]))[:d])
		if k.gpu.treeReduce {
			b.ChargeParallel(d, 2*cudasim.CostGlobal+cudasim.CostFLOP)
			b.ChargeTreeReduce(b.Dim())
		} else {
			b.Charge(uint64(d) * (2*cudasim.CostGlobal + cudasim.CostFLOP))
		}
		b.Charge(cudasim.CostGlobal) // the output write
	}
}

// gpuGenericBlock evaluates the compiled UDF for one block's edges, output
// elements across threads when the FDS binds the output axis.
func (k *SDDMMKernel) gpuGenericBlock(b *cudasim.Block, out *tensor.Tensor, blocks int, env *codegen.Env) {
	nnz := k.adj.NNZ()
	ed := k.edges
	odata, ostride := out.Data(), out.RowStride()
	featPar := k.gpu.featPar
	bodyCost := k.gpu.bodyCost
	outLen := k.outLen
	for e := b.Idx(); e < nnz; e += blocks {
		if b.Cancelled() {
			return
		}
		eid := int(ed.EID[e])
		k.compiled.Eval(env, ed.Col[e], ed.Row[e], ed.EID[e], odata[eid*ostride:eid*ostride+outLen], 0, outLen)
		if featPar {
			b.ChargeParallel(outLen, bodyCost+cudasim.CostGlobal)
		} else {
			b.Charge(uint64(outLen) * (bodyCost + cudasim.CostGlobal))
		}
	}
}

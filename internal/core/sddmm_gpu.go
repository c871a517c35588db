package core

import (
	"context"
	"errors"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// sddmmGPU holds the GPU-side schedule of an SDDMM kernel: the edge
// parallelization of Figure 7b, where each block processes a set of edges
// (non-zeros) and the threads of a block cooperate on each edge's feature
// computation — by tree reduction for dot products when the FDS asks for
// it (Figure 4a), or across output elements otherwise.
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
	k       *SDDMMKernel
	out     *tensor.Tensor
	blocks  int
	dot     bool
	kernel  func(*cudasim.Block)
	scratch []*sddmmGPUScratch
	// beacon is the stall watchdog's progress counter (see spmmGPULaunch).
	beacon admission.Beacon
}

// sddmmGPUScratch is per-runner-slot state: the compiled-UDF environment
// for the generic path and the tree-reduction partials buffer for the dot
// path (sized to the block dimension on first use, regrown if it changes).
type sddmmGPUScratch struct {
	env      *codegen.Env
	partials []float32
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
	st := &sddmmGPULaunch{k: k, scratch: make([]*sddmmGPUScratch, workpool.Default().MaxRunners())}
	st.kernel = st.block
	return st
}

// block runs one grid block on the dot or generic path with the slot's
// reusable scratch.
func (st *sddmmGPULaunch) block(b *cudasim.Block) {
	sc := st.scratch[b.Slot()]
	if sc == nil {
		sc = &sddmmGPUScratch{env: st.k.compiled.NewEnv()}
		st.scratch[b.Slot()] = sc
	}
	if st.dot {
		st.k.gpuDotBlock(b, st.out, st.blocks, sc)
	} else {
		st.k.gpuGenericBlock(b, st.out, st.blocks, sc)
	}
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

// wrapSDDMMLaunchErr rewrites a device panic into a *KernelError locating
// the failing block; other launch errors (cancellation) pass through.
func wrapSDDMMLaunchErr(err error) error {
	var kpe *cudasim.KernelPanicError
	if errors.As(err, &kpe) {
		return &KernelError{Kernel: "sddmm", Target: GPU, Worker: kpe.Block, Tile: -1, Part: -1, Value: kpe.Value}
	}
	return err
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
		return RunStats{}, wrapSDDMMLaunchErr(stallCause(ctx, err))
	}
	// Nominal traversal count: the single launch visits every edge once.
	return RunStats{SimCycles: stats.SimCycles, EdgesProcessed: uint64(nnz)}, nil
}

// gpuDotBlock runs the dot fast path for one block's edges.
func (k *SDDMMKernel) gpuDotBlock(b *cudasim.Block, out *tensor.Tensor, blocks int, sc *sddmmGPUScratch) {
	nnz := k.adj.NNZ()
	ed := k.edges
	odata := out.Data()
	x, y := k.match.X, k.match.Y
	xd, xs := x.Data(), x.RowStride()
	yd, ys := y.Data(), y.RowStride()
	d := k.redAxis.Extent
	tree := k.gpu.treeReduce
	var partials []float32
	if tree {
		if cap(sc.partials) < b.Dim() {
			sc.partials = make([]float32, b.Dim())
		}
		partials = sc.partials[:b.Dim()]
	}
	for e := b.Idx(); e < nnz; e += blocks {
		if b.Cancelled() {
			return
		}
		u, v := int(ed.Col[e]), int(ed.Row[e])
		xrow := xd[u*xs : u*xs+d]
		yrow := yd[v*ys : v*ys+d]
		var s float32
		if tree {
			// Threads accumulate strided partials, then combine
			// with the log-depth tree (Figure 7b).
			clear(partials)
			dim := b.Dim()
			for t := 0; t < dim; t++ {
				var p float32
				for f := t; f < d; f += dim {
					p += xrow[f] * yrow[f]
				}
				partials[t] = p
			}
			s = cudasim.TreeReduceSum(partials)
			b.ChargeParallel(d, 2*cudasim.CostGlobal+cudasim.CostFLOP)
			b.ChargeTreeReduce(b.Dim())
		} else {
			// The naive strategy: the whole dot product on one
			// thread (what Gunrock does; Figure 12's baseline).
			for f := 0; f < d; f++ {
				s += xrow[f] * yrow[f]
			}
			b.Charge(uint64(d) * (2*cudasim.CostGlobal + cudasim.CostFLOP))
		}
		odata[ed.EID[e]] = s
		b.Charge(cudasim.CostGlobal)
	}
}

// gpuGenericBlock evaluates the compiled UDF for one block's edges, output
// elements across threads when the FDS binds the output axis.
func (k *SDDMMKernel) gpuGenericBlock(b *cudasim.Block, out *tensor.Tensor, blocks int, sc *sddmmGPUScratch) {
	nnz := k.adj.NNZ()
	ed := k.edges
	odata, ostride := out.Data(), out.RowStride()
	featPar := k.gpu.featPar
	bodyCost := k.gpu.bodyCost
	outLen := k.outLen
	env := sc.env
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

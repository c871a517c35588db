package core

import (
	"context"

	"featgraph/internal/admission"
	"featgraph/internal/cudasim"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// The simulated-GPU fused attention path: row-per-block grid-strided
// launches mirroring the CPU schedule (one launch for the forward, one per
// backward phase). A block runs the CPU row bodies (fwdRows, bwdDstRows,
// bwdSrcRows) on its rows, streaming each row's scores through slot-local
// scratch — the register/shared-memory residency FusedMM-style kernels rely
// on — and charges the cycle model after each row. Exponentials charge
// CostExp, the special-function-unit latency. Failures degrade to the CPU
// path under the kernel's circuit breaker exactly like the template kernels.

// fusedAttnGPU holds the device and the reusable launch-state freelist.
// Both directions share the type; each built kernel owns its own instance.
type fusedAttnGPU struct {
	dev    *cudasim.Device
	states chan *fusedAttnGPULaunch
}

func buildFusedAttnGPU(opts Options) *fusedAttnGPU {
	return &fusedAttnGPU{dev: opts.device(), states: make(chan *fusedAttnGPULaunch, runStatePoolCap)}
}

// fusedAttnGPULaunch is one launch's worth of reusable state. Exactly one
// of fwd/bwd is set, fixing which block body the kernel closure routes to.
type fusedAttnGPULaunch struct {
	fwd *FusedAttnKernel
	bwd *FusedAttnBwdKernel

	out        *tensor.Tensor
	gridBlocks int
	phase2     bool
	kernel     func(*cudasim.Block)
	scratch    []*fusedAttnScratch // per-slot score (fwd) / dα (bwd) buffers
	maxInDeg   int                 // their length
	dEdge      []float32           // bwd: the inter-phase dE buffer
	beacon     admission.Beacon
}

func (st *fusedAttnGPULaunch) block(b *cudasim.Block) {
	slot := b.Slot()
	sc := st.scratch[slot]
	if sc == nil {
		sc = newFusedAttnScratch(st.maxInDeg)
		st.scratch[slot] = sc
	}
	if st.fwd != nil {
		st.fwd.gpuBlock(b, st.out, st.gridBlocks, sc)
		return
	}
	st.bwd.gpuBlock(b, st.out, st.gridBlocks, st.phase2, st.dEdge, sc)
}

func (k *FusedAttnKernel) newGPULaunch() *fusedAttnGPULaunch {
	st := &fusedAttnGPULaunch{fwd: k, scratch: make([]*fusedAttnScratch, workpool.Default().MaxRunners()), maxInDeg: k.maxInDeg}
	st.kernel = st.block
	return st
}

func (k *FusedAttnBwdKernel) newGPULaunch() *fusedAttnGPULaunch {
	st := &fusedAttnGPULaunch{bwd: k, scratch: make([]*fusedAttnScratch, workpool.Default().MaxRunners()), maxInDeg: k.maxInDeg,
		dEdge: make([]float32, k.adj.NNZ())}
	st.kernel = st.block
	return st
}

// fusedAttnLaunchDims resolves the grid: row-per-block up to the row count,
// threads covering the feature dimension.
func fusedAttnLaunchDims(opts Options, rows, d int) (blocks, threads int) {
	blocks = opts.NumBlocks
	if blocks <= 0 {
		blocks = rows
	}
	blocks = max(min(blocks, rows), 1)
	threads = opts.ThreadsPerBlock
	if threads <= 0 {
		threads = min(nextPow2(d), 256)
	}
	return blocks, min(threads, 1024)
}

// runGPU executes the fused forward as one device launch.
func (k *FusedAttnKernel) runGPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	g := k.gpu
	st := getState(g.states, k.newGPULaunch)
	defer func() { st.out = nil; putState(g.states, st) }()
	ctx, w := startWatch(ctx, k.opts.Admission, &st.beacon, "fusedattn/gpu")
	defer w.end()
	st.out = out
	out.Zero()
	blocks, threads := fusedAttnLaunchDims(k.opts, k.adj.NumRows, k.d)
	st.gridBlocks = blocks
	stats, err := g.dev.LaunchCtx(ctx, cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads, Progress: st.beacon.Counter()}, st.kernel)
	if err != nil {
		return RunStats{SimCycles: stats.SimCycles}, deviceError(ctx, err, "fusedattn", -1, -1)
	}
	return RunStats{SimCycles: stats.SimCycles, EdgesProcessed: uint64(k.adj.NNZ())}, nil
}

// gpuBlock runs fwdRows on the block's grid-strided rows, charging each row
// after it runs: per in-edge, besides chargeDstRow's rows and dot, the
// score, running max and deriv write, then the exponential and the α write.
func (k *FusedAttnKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gridBlocks int, sc *fusedAttnScratch) {
	adj := k.adj
	for v := b.Idx(); v < adj.NumRows; v += gridBlocks {
		if b.Cancelled() {
			return
		}
		deg := uint64(adj.RowPtr[v+1] - adj.RowPtr[v])
		if deg == 0 {
			continue
		}
		k.fwdRows(out, sc, v, v+1)
		chargeDstRow(b, k.d, deg, cudasim.CostExp+3*cudasim.CostFLOP+2*cudasim.CostGlobal)
	}
}

// chargeDstRow charges one destination row of deg in-edges to the fused
// kernels' cycle model: a feature row read and one written across the
// block's threads; per in-edge an x row dotted, the dot reduced in log depth
// across the threads, and an x row folded; plus serial cycles per edge.
// Block charges only add, so a row's are charged together after it runs.
func chargeDstRow(b *cudasim.Block, d int, deg, serial uint64) {
	b.ChargeParallel(d, 2*cudasim.CostGlobal+2*deg*(cudasim.CostGlobal+2*cudasim.CostFLOP))
	b.Charge(deg * serial)
	for range deg {
		b.ChargeTreeReduce(d)
	}
}

// runGPU executes the fused backward as two device launches — destination
// rows, then (after the launch boundary, the device-side barrier) source
// rows of the transpose reading the dE buffer the first launch filled.
func (k *FusedAttnBwdKernel) runGPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	g := k.gpu
	st := getState(g.states, k.newGPULaunch)
	defer func() { st.out = nil; putState(g.states, st) }()
	ctx, w := startWatch(ctx, k.opts.Admission, &st.beacon, "fusedattn.bwd/gpu")
	defer w.end()
	st.out = out
	out.Zero()
	var total uint64
	for phase := 0; phase < 2; phase++ {
		st.phase2 = phase == 1
		rows := k.adj.NumRows
		if st.phase2 {
			rows = k.adjT.NumRows
		}
		blocks, threads := fusedAttnLaunchDims(k.opts, rows, k.d)
		st.gridBlocks = blocks
		stats, err := g.dev.LaunchCtx(ctx, cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads, Progress: st.beacon.Counter()}, st.kernel)
		total += stats.SimCycles
		if err != nil {
			return RunStats{SimCycles: total}, deviceError(ctx, err, "fusedattn.bwd", -1, phase)
		}
	}
	return RunStats{SimCycles: total, EdgesProcessed: 2 * uint64(k.adj.NNZ())}, nil
}

// gpuBlock runs one backward phase on the block's grid-strided rows —
// bwdDstRows on adj's destination rows, bwdSrcRows on the transpose's
// source rows — charging each row after it runs.
func (k *FusedAttnBwdKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gridBlocks int, phase2 bool, dEdge []float32, sc *fusedAttnScratch) {
	adj := k.adj
	if phase2 {
		adj = k.adjT
	}
	for v := b.Idx(); v < adj.NumRows; v += gridBlocks {
		if b.Cancelled() {
			return
		}
		deg := uint64(adj.RowPtr[v+1] - adj.RowPtr[v])
		if deg == 0 {
			continue
		}
		if phase2 {
			k.bwdSrcRows(out, dEdge, v, v+1)
			// Per out-edge the α and dE loads and two weighted rows across
			// the threads; then the dX row write.
			b.Charge(deg * 2 * cudasim.CostGlobal)
			b.ChargeParallel(k.d, cudasim.CostGlobal+deg*(2*cudasim.CostGlobal+4*cudasim.CostFLOP))
			continue
		}
		k.bwdDstRows(out, dEdge, sc, v, v+1)
		// Per in-edge, besides chargeDstRow's: the Jacobian's row-dot term,
		// the α and deriv loads, dE and its write.
		chargeDstRow(b, k.d, deg, 4*cudasim.CostGlobal+5*cudasim.CostFLOP)
	}
}

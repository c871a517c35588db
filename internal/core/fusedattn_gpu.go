package core

import (
	"context"
	"errors"

	"featgraph/internal/admission"
	"featgraph/internal/cudasim"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// The simulated-GPU fused attention path: row-per-block grid-strided
// launches mirroring the CPU schedule (one launch for the forward, one per
// backward phase), with each block streaming its rows' scores through
// slot-local scratch — the register/shared-memory residency FusedMM-style
// kernels rely on. Exponentials charge CostExp, the special-function-unit
// latency. Failures degrade to the CPU path under the kernel's circuit
// breaker exactly like the template kernels.

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
	dEdge      []float32           // bwd: the inter-phase dE buffer
	beacon     admission.Beacon
}

func (st *fusedAttnGPULaunch) block(b *cudasim.Block) {
	slot := b.Slot()
	sc := st.scratch[slot]
	if sc == nil {
		n := 0
		if st.fwd != nil {
			n = st.fwd.maxInDeg
		} else {
			n = st.bwd.maxInDeg
		}
		sc = &fusedAttnScratch{scores: make([]float32, n)}
		st.scratch[slot] = sc
	}
	if st.fwd != nil {
		st.fwd.gpuBlock(b, st.out, st.gridBlocks, sc)
		return
	}
	st.bwd.gpuBlock(b, st.out, st.gridBlocks, st.phase2, st.dEdge, sc)
}

func (k *FusedAttnKernel) newGPULaunch() *fusedAttnGPULaunch {
	st := &fusedAttnGPULaunch{fwd: k, scratch: make([]*fusedAttnScratch, workpool.Default().MaxRunners())}
	st.kernel = st.block
	return st
}

func (k *FusedAttnBwdKernel) newGPULaunch() *fusedAttnGPULaunch {
	st := &fusedAttnGPULaunch{bwd: k, scratch: make([]*fusedAttnScratch, workpool.Default().MaxRunners()),
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
		err = stallCause(ctx, err)
		var kpe *cudasim.KernelPanicError
		if errors.As(err, &kpe) {
			err = &KernelError{Kernel: "fusedattn", Target: GPU, Worker: kpe.Block, Tile: -1, Part: -1, Value: kpe.Value}
		}
		return RunStats{SimCycles: stats.SimCycles}, err
	}
	return RunStats{SimCycles: stats.SimCycles, EdgesProcessed: uint64(k.adj.NNZ())}, nil
}

// gpuBlock runs the fused forward for the block's grid-strided rows.
func (k *FusedAttnKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gridBlocks int, sc *fusedAttnScratch) {
	adj := k.adj
	d := k.d
	xd, xs := k.x.Data(), k.x.RowStride()
	yd, ys := k.y.Data(), k.y.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	scale, slope := k.cfg.Scale, k.cfg.NegSlope

	for v := b.Idx(); v < adj.NumRows; v += gridBlocks {
		if b.Cancelled() {
			return
		}
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		deg := hi - lo
		if deg == 0 {
			continue
		}
		yrow := yd[v*ys : v*ys+d]
		b.ChargeParallel(d, cudasim.CostGlobal) // destination feature row
		scores := sc.scores[:deg]
		runMax := negInf32
		for j := 0; j < deg; j++ {
			p := lo + j
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			var dot float32
			for f, yf := range yrow {
				dot += xrow[f] * yf
			}
			s := dot
			drv := scale
			if dot <= 0 {
				s *= slope
				drv *= slope
			}
			s *= scale
			scores[j] = s
			dd[adj.EID[p]] = drv
			if s > runMax {
				runMax = s
			}
			b.ChargeParallel(d, cudasim.CostGlobal+2*cudasim.CostFLOP) // x row + dot
			b.ChargeTreeReduce(d)                                      // dot reduction
			b.Charge(2*cudasim.CostFLOP + cudasim.CostGlobal)          // score, max, deriv write
		}
		for j := range scores {
			scores[j] -= runMax
		}
		ExpSliceF32(scores)
		var runSum float32
		for _, e := range scores {
			runSum += e
		}
		inv := 1 / runSum
		orow := odata[v*ostride : v*ostride+d]
		for j := 0; j < deg; j++ {
			p := lo + j
			a := scores[j] * inv
			ad[adj.EID[p]] = a
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			for f := range orow {
				orow[f] += a * xrow[f]
			}
			b.Charge(cudasim.CostExp + cudasim.CostFLOP + cudasim.CostGlobal)
			b.ChargeParallel(d, cudasim.CostGlobal+2*cudasim.CostFLOP)
		}
		b.ChargeParallel(d, cudasim.CostGlobal) // output row write
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
			err = stallCause(ctx, err)
			var kpe *cudasim.KernelPanicError
			if errors.As(err, &kpe) {
				err = &KernelError{Kernel: "fusedattn.bwd", Target: GPU, Worker: kpe.Block, Tile: -1, Part: phase, Value: kpe.Value}
			}
			return RunStats{SimCycles: total}, err
		}
	}
	return RunStats{SimCycles: total, EdgesProcessed: 2 * uint64(k.adj.NNZ())}, nil
}

// gpuBlock runs one backward phase for the block's grid-strided rows.
func (k *FusedAttnBwdKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gridBlocks int, phase2 bool, dEdge []float32, sc *fusedAttnScratch) {
	d := k.d
	if phase2 {
		adjT := k.adjT
		yd, ys := k.y.Data(), k.y.RowStride()
		gd, gs := k.dout.Data(), k.dout.RowStride()
		ad := k.alpha.Data()
		odata, ostride := out.Data(), out.RowStride()
		for u := b.Idx(); u < adjT.NumRows; u += gridBlocks {
			if b.Cancelled() {
				return
			}
			lo, hi := int(adjT.RowPtr[u]), int(adjT.RowPtr[u+1])
			if lo == hi {
				continue
			}
			dxrow := odata[u*ostride : u*ostride+d]
			for p := lo; p < hi; p++ {
				e := adjT.EID[p]
				v := int(adjT.ColIdx[p])
				a, de := ad[e], dEdge[e]
				gro := gd[v*gs : v*gs+d]
				yrow := yd[v*ys : v*ys+d]
				for f := range dxrow {
					dxrow[f] += a*gro[f] + de*yrow[f]
				}
				b.Charge(2 * cudasim.CostGlobal) // α and dE loads
				b.ChargeParallel(d, 2*cudasim.CostGlobal+4*cudasim.CostFLOP)
			}
			b.ChargeParallel(d, cudasim.CostGlobal)
		}
		return
	}

	adj := k.adj
	xd, xs := k.x.Data(), k.x.RowStride()
	gd, gs := k.dout.Data(), k.dout.RowStride()
	ad, dd := k.alpha.Data(), k.deriv.Data()
	odata, ostride := out.Data(), out.RowStride()
	base := adj.NumCols
	for v := b.Idx(); v < adj.NumRows; v += gridBlocks {
		if b.Cancelled() {
			return
		}
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		deg := hi - lo
		if deg == 0 {
			continue
		}
		gro := gd[v*gs : v*gs+d]
		b.ChargeParallel(d, cudasim.CostGlobal)
		dA := sc.scores[:deg]
		var rowDot float64
		for j := 0; j < deg; j++ {
			p := lo + j
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			var s float32
			for f, gf := range gro {
				s += xrow[f] * gf
			}
			dA[j] = s
			rowDot += float64(ad[adj.EID[p]] * s)
			b.ChargeParallel(d, cudasim.CostGlobal+2*cudasim.CostFLOP)
			b.ChargeTreeReduce(d)
			b.Charge(cudasim.CostGlobal + 2*cudasim.CostFLOP)
		}
		rd := float32(rowDot)
		dyrow := odata[(base+v)*ostride : (base+v)*ostride+d]
		for j := 0; j < deg; j++ {
			p := lo + j
			e := adj.EID[p]
			de := ad[e] * (dA[j] - rd) * dd[e]
			dEdge[e] = de
			u := int(adj.ColIdx[p])
			xrow := xd[u*xs : u*xs+d]
			for f := range dyrow {
				dyrow[f] += de * xrow[f]
			}
			b.Charge(2*cudasim.CostGlobal + 3*cudasim.CostFLOP + cudasim.CostGlobal)
			b.ChargeParallel(d, cudasim.CostGlobal+2*cudasim.CostFLOP)
		}
		b.ChargeParallel(d, cudasim.CostGlobal)
	}
}

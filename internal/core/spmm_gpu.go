package core

import (
	"context"
	"errors"
	"fmt"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// spmmGPU holds the GPU-side schedule of an SpMM kernel: the vertex
// parallelization of Figure 7a (rows across blocks, feature dimension
// across the threads of a block) plus optional hybrid degree partitioning
// (§III-C3), where high-degree source vertices are staged through shared
// memory chunk by chunk.
type spmmGPU struct {
	dev      *cudasim.Device
	parts    []*gpuPart
	featPar  bool   // FDS bound the feature axis to thread.x
	bodyCost uint64 // simulated cycles per generic-UDF output element

	states chan *spmmGPULaunch // reusable launch-state freelist
}

// spmmGPULaunch is one GPU execution's worth of reusable state: the kernel
// closure handed to the device (created once), the per-launch dispatch
// parameters (set between launches; launches are synchronous), and host-side
// per-slot scratch keyed by cudasim.Block.Slot.
type spmmGPULaunch struct {
	k          *SpMMKernel
	out        *tensor.Tensor
	gp         *gpuPart
	tile       partition.Range
	gridBlocks int
	kernel     func(*cudasim.Block)
	scratch    []*gpuScratch
	// beacon is the stall watchdog's progress counter; the device ticks it
	// once per retired block via LaunchConfig.Progress.
	beacon admission.Beacon
}

// gpuScratch is per-runner-slot evaluation state for GPU blocks: the
// analogue of spmmScratch on the device side. Allocated on a slot's first
// block, reused for every later block and launch on that slot.
type gpuScratch struct {
	env *codegen.Env
	msg []float32
	tmp []float32
}

func (k *SpMMKernel) newGPULaunch() *spmmGPULaunch {
	st := &spmmGPULaunch{k: k, scratch: make([]*gpuScratch, workpool.Default().MaxRunners())}
	st.kernel = st.block
	return st
}

// block runs one grid block, routing the slot's scratch to the kernel body.
func (st *spmmGPULaunch) block(b *cudasim.Block) {
	sc := st.scratch[b.Slot()]
	if sc == nil {
		sc = &gpuScratch{
			env: st.k.compiled.NewEnv(),
			msg: make([]float32, st.k.maxTile),
			tmp: make([]float32, st.k.tmpLen),
		}
		st.scratch[b.Slot()] = sc
	}
	st.k.gpuBlock(b, st.out, st.gp, st.tile, st.gridBlocks, sc)
}

// gpuPart is one column partition processed by one kernel launch. For
// staged parts, localColIdx rewrites each edge's source to its position in
// chunkCols so kernels can index the shared-memory staging buffer directly.
type gpuPart struct {
	csr         *sparse.CSR
	staged      bool
	chunkCols   []int32
	localColIdx []int32
}

func buildSpMMGPU(k *SpMMKernel, udf *expr.UDF, fds *schedule.FDS) (*spmmGPU, error) {
	g := &spmmGPU{
		dev:      k.opts.device(),
		bodyCost: codegen.EstimateCostPerElem(udf),
	}
	if r, ok := fds.Binding(udf.OutAxes[0]); ok && r == schedule.ThreadX {
		g.featPar = true
	}

	if k.opts.HybridThreshold > 0 {
		// Hybrid partitioning needs the staging of one chunk's feature
		// tile to fit in shared memory. Chunk width = shared floats /
		// widest feature tile.
		maxTile := 0
		for _, t := range k.tiles {
			maxTile = max(maxTile, t.Len())
		}
		chunkCols := g.dev.SharedFloats() / maxTile
		if chunkCols < 1 {
			return nil, fmt.Errorf("core: feature tile %d floats exceeds shared memory (%d floats); split the feature axis", maxTile, g.dev.SharedFloats())
		}
		plan, err := partition.Hybrid(k.adj, k.opts.HybridThreshold, chunkCols)
		if err != nil {
			return nil, err
		}
		g.parts = append(g.parts, &gpuPart{csr: plan.Parts[0]})
		for i, chunk := range plan.ChunkCols {
			part := plan.Parts[i+1]
			local := make([]int32, len(part.ColIdx))
			pos := make(map[int32]int32, len(chunk))
			for j, c := range chunk {
				pos[c] = int32(j)
			}
			for e, c := range part.ColIdx {
				local[e] = pos[c]
			}
			g.parts = append(g.parts, &gpuPart{csr: part, staged: true, chunkCols: chunk, localColIdx: local})
		}
	} else {
		g.parts = []*gpuPart{{csr: k.adj}}
	}
	g.states = make(chan *spmmGPULaunch, runStatePoolCap)
	return g, nil
}

// gpuLaunchDims resolves the grid for an SpMM launch: the paper sets the
// number of blocks to the number of adjacency rows (Figure 15 sweeps it),
// and threads cover the feature tile when the FDS binds it to thread.x.
func (k *SpMMKernel) gpuLaunchDims(tileLen int) (blocks, threads int) {
	blocks = k.opts.NumBlocks
	if blocks <= 0 {
		blocks = k.adj.NumRows
	}
	blocks = min(blocks, k.adj.NumRows)
	threads = k.opts.ThreadsPerBlock
	if threads <= 0 {
		if k.gpu.featPar {
			threads = min(nextPow2(tileLen), 256)
		} else {
			threads = 32
		}
	}
	return blocks, min(threads, 1024)
}

// runGPU executes the kernel on the simulated device, one launch per
// (feature tile × column partition), and reports accumulated simulated
// cycles. Device panics come back as *KernelErrors locating the failing
// block in the schedule; cancellation stops the launch loop and in-flight
// blocks (which poll Block.Cancelled between rows).
func (k *SpMMKernel) runGPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	g := k.gpu
	st := getState(g.states, k.newGPULaunch)
	defer func() { st.out, st.gp = nil, nil; putState(g.states, st) }()
	ctx, w := startWatch(ctx, k.opts.Admission, &st.beacon, "spmm/gpu")
	defer w.end()
	st.out = out
	out.Fill(k.agg.identity())
	var total uint64

	for ti, tile := range k.tiles {
		tileLen := tile.Len()
		blocks, threads := k.gpuLaunchDims(tileLen)
		st.tile = tile
		st.gridBlocks = blocks
		for pi, gp := range g.parts {
			st.gp = gp
			stats, err := g.dev.LaunchCtx(ctx, cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads, Progress: st.beacon.Counter()}, st.kernel)
			if err != nil {
				err = stallCause(ctx, err)
				var kpe *cudasim.KernelPanicError
				if errors.As(err, &kpe) {
					err = &KernelError{Kernel: "spmm", Target: GPU, Worker: kpe.Block, Tile: ti, Part: pi, Value: kpe.Value}
				}
				return RunStats{SimCycles: total}, err
			}
			total += stats.SimCycles
		}
	}
	finalizeAgg(k.agg, out, k.adj, 0, k.adj.NumRows)
	total += uint64(k.adj.NumRows) // epilogue pass
	// Nominal traversal count: the launched grid visits every edge once
	// per feature tile (no host-side chunk accounting on the device path).
	edges := uint64(k.adj.NNZ()) * uint64(len(k.tiles))
	return RunStats{SimCycles: total, EdgesProcessed: edges}, nil
}

// gpuBlock processes the rows assigned to one block (grid-strided) for one
// feature tile of one column partition.
func (k *SpMMKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gp *gpuPart, tile partition.Range, gridBlocks int, sc *gpuScratch) {
	lo, hi := tile.Lo, tile.Hi
	tileLen := hi - lo
	part := gp.csr
	odata, ostride := out.Data(), out.RowStride()

	// Per-element load cost for source features: shared after staging,
	// global otherwise.
	loadCost := uint64(cudasim.CostGlobal)

	// Stage the chunk's feature-tile rows into shared memory. Every block
	// pays the staging cost; the win comes from high-degree columns being
	// re-read many times at shared-memory cost (§III-C3). Staging data is
	// only usable when the UDF reads X tile-aligned (X width == outLen);
	// other patterns keep reading global memory but still traverse the
	// hybrid partition structure.
	var shared []float32
	stageUsable := k.match.X != nil &&
		(k.match.Pattern == codegen.CopySrc || k.match.Pattern == codegen.SrcMulEdgeScalar)
	if gp.staged && stageUsable {
		x := k.match.X
		shared = b.Shared(len(gp.chunkCols) * tileLen)
		xd, xs := x.Data(), x.RowStride()
		for j, c := range gp.chunkCols {
			copy(shared[j*tileLen:(j+1)*tileLen], xd[int(c)*xs+lo:int(c)*xs+hi])
		}
		b.ChargeParallel(len(gp.chunkCols)*tileLen, cudasim.CostGlobal+cudasim.CostShared)
		loadCost = cudasim.CostShared
	}
	useShared := gp.staged && stageUsable

	chargeFeat := func(cost uint64) {
		if k.gpu.featPar {
			b.ChargeParallel(tileLen, cost)
		} else {
			b.Charge(uint64(tileLen) * cost)
		}
	}

	switch {
	case k.match.Pattern == codegen.CopySrc && (k.agg == AggSum || k.agg == AggMean || k.agg == AggMax):
		x := k.match.X
		xd, xs := x.Data(), x.RowStride()
		isMax := k.agg == AggMax
		for r := b.Idx(); r < part.NumRows; r += gridBlocks {
			if b.Cancelled() {
				return
			}
			s, e := part.RowPtr[r], part.RowPtr[r+1]
			if s == e {
				continue
			}
			orow := odata[r*ostride+lo : r*ostride+hi]
			for p := s; p < e; p++ {
				var xrow []float32
				if useShared {
					j := int(gp.localColIdx[p])
					xrow = shared[j*tileLen : (j+1)*tileLen]
				} else {
					c := int(part.ColIdx[p])
					xrow = xd[c*xs+lo : c*xs+hi]
				}
				if isMax {
					for f := range orow {
						if xrow[f] > orow[f] {
							orow[f] = xrow[f]
						}
					}
				} else {
					for f := range orow {
						orow[f] += xrow[f]
					}
				}
				chargeFeat(loadCost + cudasim.CostFLOP)
			}
			chargeFeat(cudasim.CostGlobal) // write the accumulated row
		}

	case k.match.Pattern == codegen.SrcMulEdgeScalar && (k.agg == AggSum || k.agg == AggMean):
		x, ew := k.match.X, k.match.E
		xd, xs := x.Data(), x.RowStride()
		ed := ew.Data()
		for r := b.Idx(); r < part.NumRows; r += gridBlocks {
			if b.Cancelled() {
				return
			}
			s, e := part.RowPtr[r], part.RowPtr[r+1]
			if s == e {
				continue
			}
			orow := odata[r*ostride+lo : r*ostride+hi]
			for p := s; p < e; p++ {
				wgt := ed[part.EID[p]]
				var xrow []float32
				if useShared {
					j := int(gp.localColIdx[p])
					xrow = shared[j*tileLen : (j+1)*tileLen]
				} else {
					c := int(part.ColIdx[p])
					xrow = xd[c*xs+lo : c*xs+hi]
				}
				for f := range orow {
					orow[f] += wgt * xrow[f]
				}
				chargeFeat(loadCost + 2*cudasim.CostFLOP)
			}
			chargeFeat(cudasim.CostGlobal)
		}

	case k.match.Pattern == codegen.MLPSrcDst:
		// MLP aggregation with the multi-level parallelization of
		// Figure 9: rows across blocks, output features across threads,
		// with the combined feature vector computed once per edge.
		x, w := k.match.X, k.match.W
		xd, xs := x.Data(), x.RowStride()
		wd, ws := w.Data(), w.RowStride()
		d1 := w.Dim(0)
		tmp := sc.tmp[:d1]
		msg := sc.msg[:tileLen]
		for r := b.Idx(); r < part.NumRows; r += gridBlocks {
			if b.Cancelled() {
				return
			}
			s, e := part.RowPtr[r], part.RowPtr[r+1]
			if s == e {
				continue
			}
			orow := odata[r*ostride+lo : r*ostride+hi]
			xv := xd[r*xs : r*xs+d1]
			for p := s; p < e; p++ {
				c := int(part.ColIdx[p])
				xu := xd[c*xs : c*xs+d1]
				for kk := range tmp {
					tmp[kk] = xu[kk] + xv[kk]
				}
				b.ChargeParallel(d1, 2*cudasim.CostGlobal+cudasim.CostFLOP)
				clear(msg)
				for kk, a := range tmp {
					if a == 0 {
						continue
					}
					wrow := wd[kk*ws+lo : kk*ws+hi]
					for f := range msg {
						msg[f] += a * wrow[f]
					}
				}
				if k.match.Relu {
					for f := range msg {
						if msg[f] < 0 {
							msg[f] = 0
						}
					}
				}
				aggInto(k.agg, orow, msg)
				// d1 passes over the tile, features across threads.
				chargeFeat(uint64(d1) * (cudasim.CostGlobal + 2*cudasim.CostFLOP))
			}
			chargeFeat(cudasim.CostGlobal)
		}

	default:
		// Generic path: evaluate the compiled UDF per edge. The feature
		// tile is parallelized across threads when the FDS asks for it.
		env := sc.env
		msg := sc.msg[:tileLen]
		for r := b.Idx(); r < part.NumRows; r += gridBlocks {
			if b.Cancelled() {
				return
			}
			s, e := part.RowPtr[r], part.RowPtr[r+1]
			if s == e {
				continue
			}
			orow := odata[r*ostride+lo : r*ostride+hi]
			for p := s; p < e; p++ {
				k.compiled.Eval(env, part.ColIdx[p], int32(r), part.EID[p], msg, lo, hi)
				aggInto(k.agg, orow, msg)
				chargeFeat(k.gpu.bodyCost + cudasim.CostFLOP)
			}
			chargeFeat(cudasim.CostGlobal)
		}
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

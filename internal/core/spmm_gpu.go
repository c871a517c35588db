package core

import (
	"context"
	"fmt"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/partition"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
	"featgraph/internal/vec"
	"featgraph/internal/workpool"
)

// spmmGPU holds the GPU-side schedule of an SpMM kernel: the vertex
// parallelization of Figure 7a (rows across blocks, feature dimension
// across the threads of a block) plus optional hybrid degree partitioning
// (§III-C3), where high-degree source vertices are staged through shared
// memory chunk by chunk. Blocks compute with cpuRows' row primitives; the
// schedule adds the grid, the staging and the cycle charges.
type spmmGPU struct {
	dev     *cudasim.Device
	parts   []*gpuPart
	featPar bool // FDS bound the feature axis to thread.x
	// stage: the pattern reads X tile-aligned (X width == outLen), so a
	// staged part copies its chunk's rows of X into shared memory. Other
	// patterns traverse the hybrid partition structure reading global memory.
	stage bool
	// edgeCost is the per-edge charge for each feature-tile element, source
	// features loaded from global memory ([0]) or from a staged chunk ([1]);
	// see gpuEdgeCost.
	edgeCost [2]uint64

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
	scratch    []*spmmScratch
	// beacon is the stall watchdog's progress counter; the device ticks it
	// once per retired block via LaunchConfig.Progress.
	beacon admission.Beacon
}

func (k *SpMMKernel) newGPULaunch() *spmmGPULaunch {
	st := &spmmGPULaunch{k: k, scratch: make([]*spmmScratch, workpool.Default().MaxRunners())}
	st.kernel = st.block
	return st
}

// block runs one grid block with the slot's scratch, allocated on the
// slot's first block and reused for every later block and launch on it.
func (st *spmmGPULaunch) block(b *cudasim.Block) {
	sc := st.scratch[b.Slot()]
	if sc == nil {
		sc = st.k.newScratch()
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
		dev:   k.opts.device(),
		stage: k.match.X != nil && (k.match.Pattern == codegen.CopySrc || k.match.Pattern == codegen.SrcMulEdgeScalar),
	}
	if r, ok := fds.Binding(udf.OutAxes[0]); ok && r == schedule.ThreadX {
		g.featPar = true
	}
	bodyCost := codegen.EstimateCostPerElem(udf)
	g.edgeCost = [2]uint64{k.gpuEdgeCost(cudasim.CostGlobal, bodyCost), k.gpuEdgeCost(cudasim.CostShared, bodyCost)}

	if k.opts.HybridThreshold > 0 {
		// Hybrid partitioning needs the staging of one chunk's feature
		// tile to fit in shared memory. Chunk width = shared floats /
		// widest feature tile.
		chunkCols := g.dev.SharedFloats() / k.maxTile
		if chunkCols < 1 {
			return nil, fmt.Errorf("core: feature tile %d floats exceeds shared memory (%d floats); split the feature axis", k.maxTile, g.dev.SharedFloats())
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

// gpuEdgeCost is the cycle model's charge table: what one edge charges per
// feature-tile element under the kernel's (pattern, aggregation), src being
// the cost of one source-feature load. The pairs without a device fast path
// — CopySrc under min, CopyEdge, SrcMulEdgeScalar under max and min — charge
// as a generic UDF evaluation. Every non-empty row adds one output write per
// element (gpuBlock).
func (k *SpMMKernel) gpuEdgeCost(src, bodyCost uint64) uint64 {
	sum := k.agg == AggSum || k.agg == AggMean
	switch {
	case k.match.Pattern == codegen.CopySrc && (sum || k.agg == AggMax):
		return src + cudasim.CostFLOP
	case k.match.Pattern == codegen.SrcMulEdgeScalar && sum:
		return src + 2*cudasim.CostFLOP
	case k.match.Pattern == codegen.MLPSrcDst:
		// d1 passes over the tile, features across threads.
		return uint64(k.tmpLen) * (cudasim.CostGlobal + 2*cudasim.CostFLOP)
	default:
		return bodyCost + cudasim.CostFLOP
	}
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
				return RunStats{SimCycles: total}, deviceError(ctx, err, "spmm", ti, pi)
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
// feature tile of one column partition. The arithmetic is cpuRows', one row
// at a time (stagedRow's on a staged chunk); each non-empty row is then
// charged its edges and its output write. Block charges only add, so a
// row's are charged together after it runs.
func (k *SpMMKernel) gpuBlock(b *cudasim.Block, out *tensor.Tensor, gp *gpuPart, tile partition.Range, gridBlocks int, sc *spmmScratch) {
	g := k.gpu
	tileLen := tile.Len()
	part := gp.csr
	edgeCost := g.edgeCost[0]

	// Stage the chunk's feature-tile rows into shared memory. Every block
	// pays the staging cost; the win comes from high-degree columns being
	// re-read many times at shared-memory cost (§III-C3).
	var shared []float32
	if gp.staged && g.stage {
		xd, xs := k.match.X.Data(), k.match.X.RowStride()
		shared = b.Shared(len(gp.chunkCols) * tileLen)
		for j, c := range gp.chunkCols {
			copy(shared[j*tileLen:(j+1)*tileLen], xd[int(c)*xs+tile.Lo:][:tileLen])
		}
		b.ChargeParallel(len(gp.chunkCols)*tileLen, cudasim.CostGlobal+cudasim.CostShared)
		edgeCost = g.edgeCost[1]
	}

	for r := b.Idx(); r < part.NumRows; r += gridBlocks {
		if b.Cancelled() {
			return
		}
		deg := uint64(part.RowPtr[r+1] - part.RowPtr[r])
		if deg == 0 {
			continue
		}
		if shared == nil || !k.stagedRow(out, shared, gp, tile, r) {
			k.cpuRows(out, part, tile, sc, r, r+1)
		}
		cost := deg*edgeCost + cudasim.CostGlobal
		if g.featPar {
			b.ChargeParallel(tileLen, cost)
		} else {
			b.Charge(uint64(tileLen) * cost)
		}
		// The MLP path's combined feature x_src+x_dst, once per edge
		// (tmpLen is 0 on every other path).
		b.ChargeParallel(k.tmpLen, deg*(2*cudasim.CostGlobal+cudasim.CostFLOP))
	}
}

// stagedRow is cpuRows for row r of a staged part, for the aggregations
// whose fast path reads X tile-aligned: the same row walk over
// the shared-memory chunk (row stride tileLen) through the part's
// chunk-local column indices. It reports false for the rest, which read
// global memory through cpuRows.
func (k *SpMMKernel) stagedRow(out *tensor.Tensor, shared []float32, gp *gpuPart, tile partition.Range, r int) bool {
	s, e := gp.csr.RowPtr[r], gp.csr.RowPtr[r+1]
	orow := out.Data()[r*out.RowStride()+tile.Lo:][:tile.Len()]
	local := gp.localColIdx[s:e]
	sum := k.agg == AggSum || k.agg == AggMean
	switch {
	case k.match.Pattern == codegen.CopySrc && sum:
		vec.SumRows(orow, shared, tile.Len(), local)
	case k.match.Pattern == codegen.CopySrc:
		maxMinRows(k.agg, orow, shared, tile.Len(), 0, local)
	case k.match.Pattern == codegen.SrcMulEdgeScalar && sum:
		vec.ScaledSumRows(orow, shared, tile.Len(), local, gp.csr.EID[s:e], k.match.E.Data())
	default:
		return false
	}
	return true
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

package main

import (
	"context"

	"featgraph"
	"featgraph/benchmark/harness"
	"featgraph/internal/tensor"
)

// probeExec splits one batch's execution time as far as it is visible from
// outside the serve layer. serve.exec_ms is one request carrying a batch's
// worth of seeds on an idle batcher that never waits (no window, no queue);
// the same seed set is then replayed through the calls the batcher makes
// into other layers: the sampler, block extraction, and one aggregation
// kernel per block on as many threads. What is left, serve.residual_ms, is
// the serve layer's own work: its dense product of each layer, merge, gather
// and staging, the plan pool, copy-out. tensor.block_dense_ms is those dense
// products through tensor.MatMul on the same shapes. It is no piece of the
// sum: serve has its own fused product, which is faster, so subtracting
// MatMul's time too (as issue 12 wrote the residual) gave a negative time.
func (in *serveInputs) probeExec(r *Run, batchSeeds int) error {
	const reps = 31
	ctx := context.Background()
	g, err := featgraph.GraphFromCSR(in.adj)
	if err != nil {
		return err
	}
	var seeds []int32
	seen := map[int32]bool{}
	for _, s := range in.seeds {
		if len(seeds) == batchSeeds {
			break
		}
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}

	idle, err := featgraph.NewBatcher(g, in.feats, in.model, in.config(r, 0))
	if err != nil {
		return err
	}
	defer idle.Close()
	var execMs, sampleMs, blockMs, spmmMs, denseMs []float64
	for i := 0; i < reps; i++ {
		r.attempted++
		execMs = append(execMs, r.span("featgraph.Batcher.Serve(idle, one batch)", "serve", func() {
			_, err = idle.Serve(ctx, featgraph.ServeRequest{Seeds: seeds})
		}))
		if err != nil {
			return err
		}
	}

	sampler, err := featgraph.NewSampler(g, featgraph.SampleConfig{Fanouts: in.p.fanouts, Seed: r.Seed})
	if err != nil {
		return err
	}
	var blocks []*featgraph.SampleBlock
	for i := 0; i < reps; i++ {
		sampleMs = append(sampleMs, r.span("sample.Sampler.Sample", "sample", func() { blocks, err = sampler.Sample(seeds) }))
		if err != nil {
			return err
		}
	}

	// Block extraction alone: the picks the sampler made, recovered from the
	// blocks' global edge ids, fed back to CSR.InducedBlock.
	posOf := make([]int32, in.adj.NNZ())
	for pos, eid := range in.adj.EID {
		posOf[eid] = int32(pos)
	}
	picks := make([][][]int32, len(blocks))
	for b, blk := range blocks {
		picks[b] = make([][]int32, blk.Adj.NumRows)
		for row := range picks[b] {
			for q := blk.Adj.RowPtr[row]; q < blk.Adj.RowPtr[row+1]; q++ {
				picks[b][row] = append(picks[b][row], posOf[blk.Adj.EID[q]])
			}
		}
	}
	for i := 0; i < reps; i++ {
		blockMs = append(blockMs, r.span("sparse.CSR.InducedBlock", "sparse", func() {
			for b, blk := range blocks {
				if _, _, err = in.adj.InducedBlock(blk.Dst, picks[b], blk.Dst); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
	}

	// One mean-aggregation kernel per block, built outside the timing, and
	// the two dense products of each layer on the block's shapes.
	type layerWork struct {
		kernel           *featgraph.SpMMKernel
		agg, self, neigh *tensor.Tensor
		x, out           *tensor.Tensor
	}
	work := make([]layerWork, len(blocks))
	opts := featgraph.NewOptions(featgraph.WithTarget(featgraph.CPU), featgraph.WithNumThreads(r.Threads))
	for b, blk := range blocks {
		layer := in.model.Layers[b]
		inW, outW := layer.Self.Dim(0), layer.Self.Dim(1)
		bg, err := featgraph.GraphFromCSR(blk.Adj)
		if err != nil {
			return err
		}
		w := layerWork{x: uniform(r.rng(20+int64(b)), blk.Adj.NumCols, inW), agg: tensor.New(blk.Adj.NumRows, inW),
			self: layer.Self, neigh: layer.Neigh, out: tensor.New(blk.Adj.NumRows, outW)}
		w.kernel, err = featgraph.SpMM(bg, featgraph.CopySrc(blk.Adj.NumCols, inW), []*featgraph.Tensor{w.x}, featgraph.AggMean, nil, opts)
		if err != nil {
			return err
		}
		work[b] = w
	}
	for i := 0; i < reps; i++ {
		spmmMs = append(spmmMs, r.span("core.SpMMKernel.RunCtx(blocks)", "core", func() {
			for _, w := range work {
				if _, err = w.kernel.RunCtx(ctx, w.agg); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
		denseMs = append(denseMs, r.span("tensor.MatMul(blocks)", "tensor", func() {
			for _, w := range work {
				rows := w.agg.Dim(0)
				dst := tensor.FromSlice(w.x.Data()[:rows*w.x.Dim(1)], rows, w.x.Dim(1)) // dst rows are a prefix of src rows
				tensor.MatMul(w.out, dst, w.self)
				tensor.MatMul(w.out, w.agg, w.neigh)
			}
		}))
	}

	exec := median(r.layer, "serve.exec_ms", "ms", "", execMs)
	induced := median(r.layer, "sparse.induced_block_ms", "ms", "", blockMs)
	// Sample calls InducedBlock itself; what is left is the sampler's own work.
	sampleSelf := max(harness.Median(sampleMs)-induced, 0)
	r.setLayer("sample.sample_ms", "ms", sampleSelf)
	spmm := median(r.layer, "core.block_spmm_ms", "ms", "", spmmMs)
	dense := median(r.layer, "tensor.block_dense_ms", "ms", "", denseMs)
	residual := exec - sampleSelf - induced - spmm
	if residual < 0 { // medians of separate loops: possible on a disturbed host, and then no time at all
		r.note("serve.exec_ms %.4f is less than its replayed pieces sum to (%.4f); serve.residual_ms is reported as 0", exec, exec-residual)
		residual = 0
	}
	r.setLayer("serve.residual_ms", "ms", residual)
	if dense > residual {
		r.note("tensor.MatMul on the layer shapes (%.4f ms) costs more than everything the serve layer does itself (%.4f ms), its own dense product included", dense, residual)
	}
	return nil
}

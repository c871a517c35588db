// Package tuner implements FeatGraph's naive grid search over scheduling
// parameters (§IV-A): the template side of the design space (number of
// graph partitions, number of CUDA blocks) crossed with the FDS side
// (feature tiling factors). Training amortizes the search cost over
// hundreds of epochs, so exhaustive enumeration is acceptable — the paper
// leaves smarter tuners as future work.
package tuner

import (
	"fmt"
	"time"

	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Cell is one CPU design-space point and its measured time.
type Cell struct {
	GraphPartitions int
	FeatureTile     int // split factor; 0 = untiled
	Seconds         float64
}

// GridCPU times GCN aggregation for every (graph partitions × feature
// tile) combination on the CPU target and returns all cells plus the best.
// reps >= 1 timed runs follow one warm-up run, as in the paper's protocol.
func GridCPU(adj *sparse.CSR, x *tensor.Tensor, gps, tiles []int, threads, reps int) ([]Cell, Cell, error) {
	if reps < 1 {
		reps = 1
	}
	n, d := adj.NumRows, x.Dim(1)
	if x.Dim(0) != adj.NumCols {
		return nil, Cell{}, fmt.Errorf("tuner: X has %d rows, graph has %d source vertices", x.Dim(0), adj.NumCols)
	}
	out := tensor.New(n, d)
	var cells []Cell
	best := Cell{Seconds: -1}
	for _, gp := range gps {
		for _, tile := range tiles {
			udf := expr.CopySrc(n, d)
			fds := schedule.New()
			if tile > 0 {
				fds.Split(udf.OutAxes[0], tile)
			}
			k, err := core.BuildSpMM(adj, udf, []*tensor.Tensor{x}, core.AggSum, fds,
				core.Options{Target: core.CPU, NumThreads: threads, GraphPartitions: gp})
			if err != nil {
				return nil, Cell{}, err
			}
			if _, err := k.Run(out); err != nil { // warm-up
				return nil, Cell{}, err
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := k.Run(out); err != nil {
					return nil, Cell{}, err
				}
			}
			c := Cell{GraphPartitions: gp, FeatureTile: tile, Seconds: time.Since(start).Seconds() / float64(reps)}
			cells = append(cells, c)
			if best.Seconds < 0 || c.Seconds < best.Seconds {
				best = c
			}
		}
	}
	return cells, best, nil
}

// BlockCell is one GPU grid-size point and its simulated cycle count.
type BlockCell struct {
	Blocks    int
	SimCycles uint64
}

// GridGPUBlocks measures GCN aggregation on the simulated device for each
// candidate CUDA block count (Figure 15's sweep).
func GridGPUBlocks(dev *cudasim.Device, adj *sparse.CSR, x *tensor.Tensor, blocks []int) ([]BlockCell, BlockCell, error) {
	n, d := adj.NumRows, x.Dim(1)
	out := tensor.New(n, d)
	var cells []BlockCell
	best := BlockCell{}
	for _, nb := range blocks {
		udf := expr.CopySrc(n, d)
		fds := schedule.New().Bind(udf.OutAxes[0], schedule.ThreadX)
		k, err := core.BuildSpMM(adj, udf, []*tensor.Tensor{x}, core.AggSum, fds,
			core.Options{Target: core.GPU, Device: dev, NumBlocks: nb})
		if err != nil {
			return nil, BlockCell{}, err
		}
		stats, err := k.Run(out)
		if err != nil {
			return nil, BlockCell{}, err
		}
		c := BlockCell{Blocks: nb, SimCycles: stats.SimCycles}
		cells = append(cells, c)
		if best.Blocks == 0 || c.SimCycles < best.SimCycles {
			best = c
		}
	}
	return cells, best, nil
}

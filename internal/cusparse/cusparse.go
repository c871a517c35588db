// Package cusparse is the stand-in for NVIDIA cuSPARSE in the paper's GPU
// comparisons (see DESIGN.md): a strong csrmm-class SpMM on the simulated
// device using the row-split scheme of Yang, Buluç and Owens — one block
// per row group, features across threads, no atomics — but with a fixed
// schedule: no hybrid partitioning and no generalized kernels.
package cusparse

import (
	"fmt"

	"featgraph/internal/cudasim"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// CSRMM computes out = A × X on the simulated device and returns the
// simulated cycle count. A's stored values are used.
func CSRMM(dev *cudasim.Device, a *sparse.CSR, x, out *tensor.Tensor) (uint64, error) {
	if x.Rank() != 2 || out.Rank() != 2 {
		return 0, fmt.Errorf("cusparse: CSRMM requires rank-2 tensors")
	}
	d := x.Dim(1)
	if x.Dim(0) != a.NumCols {
		return 0, fmt.Errorf("cusparse: X has %d rows, A has %d columns", x.Dim(0), a.NumCols)
	}
	if out.Dim(0) != a.NumRows || out.Dim(1) != d {
		return 0, fmt.Errorf("cusparse: out shape %v, want [%d %d]", out.Shape(), a.NumRows, d)
	}
	xd := x.Data()
	od := out.Data()
	blocks := a.NumRows
	threads := min(nextPow2(d), 256)
	stats, err := dev.Launch(cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads}, func(b *cudasim.Block) {
		for r := b.Idx(); r < a.NumRows; r += blocks {
			orow := od[r*d : (r+1)*d]
			clear(orow)
			for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
				c := int(a.ColIdx[p])
				v := a.Val[p]
				xrow := xd[c*d : (c+1)*d]
				if v == 1 {
					for f := range orow {
						orow[f] += xrow[f]
					}
				} else {
					for f := range orow {
						orow[f] += v * xrow[f]
					}
				}
				b.ChargeParallel(d, cudasim.CostGlobal+cudasim.CostFLOP)
			}
			b.ChargeParallel(d, cudasim.CostGlobal)
		}
	})
	if err != nil {
		return 0, err
	}
	return stats.SimCycles, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ConstrainedGeMM computes att[e] = x[src(e)] · y[dst(e)] for every stored
// edge of a — an SDDMM. The paper's footnote 3 notes that recent cuSPARSE
// versions support dot-product attention through this primitive; it is
// implemented here as a strong baseline: edges grouped per block, the
// reduction across threads with warp-efficient access. Returns simulated
// cycles.
func ConstrainedGeMM(dev *cudasim.Device, a *sparse.CSR, x, y, att *tensor.Tensor) (uint64, error) {
	if x.Rank() != 2 || y.Rank() != 2 {
		return 0, fmt.Errorf("cusparse: ConstrainedGeMM requires rank-2 inputs")
	}
	d := x.Dim(1)
	if y.Dim(1) != d {
		return 0, fmt.Errorf("cusparse: operand widths differ: %d vs %d", d, y.Dim(1))
	}
	if x.Dim(0) != a.NumCols || y.Dim(0) != a.NumRows {
		return 0, fmt.Errorf("cusparse: operand heights %d,%d do not match graph %dx%d", x.Dim(0), y.Dim(0), a.NumRows, a.NumCols)
	}
	nnz := a.NNZ()
	if att.Dim(0) != nnz {
		return 0, fmt.Errorf("cusparse: att has %d rows, graph has %d edges", att.Dim(0), nnz)
	}
	rows := a.EdgeRows()
	xd, yd, ad := x.Data(), y.Data(), att.Data()
	blocks := min(nnz, 4096)
	threads := min(nextPow2(d), 256)
	stats, err := dev.Launch(cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads}, func(b *cudasim.Block) {
		for e := b.Idx(); e < nnz; e += blocks {
			u, v := int(a.ColIdx[e]), int(rows[e])
			xrow := xd[u*d : (u+1)*d]
			yrow := yd[v*d : (v+1)*d]
			var s float32
			for f := 0; f < d; f++ {
				s += xrow[f] * yrow[f]
			}
			ad[a.EID[e]] = s
			b.ChargeParallel(d, 2*cudasim.CostGlobal+cudasim.CostFLOP)
			b.ChargeTreeReduce(b.Dim())
			b.Charge(cudasim.CostGlobal)
		}
	})
	if err != nil {
		return 0, err
	}
	return stats.SimCycles, nil
}

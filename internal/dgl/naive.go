package dgl

import (
	"math"
	"sync"

	"featgraph/internal/core"
	"featgraph/internal/gunrock"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Naive-backend primitives: the materialize-then-reduce execution DGL uses
// without FeatGraph. Every gather allocates an |E|×d message tensor
// (tracked in MsgBytes — the memory cost that makes GAT training run out
// of GPU memory in the paper's Table VI). On the GPU target the primitives
// run through the gunrock package's Minigun builtins — DGL's original
// Gunrock-like kernel interface — with blackbox serial per-edge feature
// loops and atomic aggregation.

func exp64(x float64) float64 { return math.Exp(x) }

// edges returns the lazily built edge-list view of adj (the adjacency or
// its transpose).
func (g *Graph) edges(adj *sparse.CSR) *gunrock.Graph {
	if adj == g.adjT {
		if g.edgesT == nil {
			g.edgesT = gunrock.NewGraph(g.adjT)
		}
		return g.edgesT
	}
	if g.edgesAdj == nil {
		g.edgesAdj = gunrock.NewGraph(g.adj)
	}
	return g.edgesAdj
}

// naiveGather materializes msg[e] = scale[e] * x[src(e)] (scale nil = 1).
func (g *Graph) naiveGather(adj *sparse.CSR, x *tensor.Tensor, scale []float32, d int) *tensor.Tensor {
	m := adj.NNZ()
	msg := tensor.New(m, d)
	g.MsgBytes += uint64(4 * m * d)
	if g.cfg.Target == core.GPU {
		cycles, err := gunrock.GatherSrc(g.cfg.Device, g.edges(adj), x, msg, scale)
		if err != nil {
			panic("dgl: gunrock gather: " + err.Error())
		}
		g.SimCycles += cycles
		return msg
	}
	xd, md := x.Data(), msg.Data()
	g.parallelRows(adj.NumRows, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
				eid, src := adj.EID[p], adj.ColIdx[p]
				row := md[int(eid)*d : int(eid)*d+d]
				xrow := xd[int(src)*d : int(src)*d+d]
				if scale == nil {
					copy(row, xrow)
				} else {
					s := scale[eid]
					for f := range row {
						row[f] = s * xrow[f]
					}
				}
			}
		}
	})
	return msg
}

// naiveGatherByDst materializes msg[e] = s * x[dst(e)], where s is 1 when
// scale is nil, scale[eid] when perEdge is true, and scale[dst] otherwise.
func (g *Graph) naiveGatherByDst(adj *sparse.CSR, x *tensor.Tensor, scale []float32, perEdge bool, d int) *tensor.Tensor {
	m := adj.NNZ()
	msg := tensor.New(m, d)
	g.MsgBytes += uint64(4 * m * d)
	if g.cfg.Target == core.GPU {
		cycles, err := gunrock.GatherDst(g.cfg.Device, g.edges(adj), x, msg, scale, perEdge)
		if err != nil {
			panic("dgl: gunrock gather-dst: " + err.Error())
		}
		g.SimCycles += cycles
		return msg
	}
	xd, md := x.Data(), msg.Data()
	g.parallelRows(adj.NumRows, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
				eid := adj.EID[p]
				row := md[int(eid)*d : int(eid)*d+d]
				xrow := xd[r*d : r*d+d]
				s := float32(1)
				if scale != nil {
					if perEdge {
						s = scale[eid]
					} else {
						s = scale[r]
					}
				}
				for f := range row {
					row[f] = s * xrow[f]
				}
			}
		}
	})
	return msg
}

// naiveScatterAdd reduces messages into destinations: out[v] += msg[e] for
// every edge e into v, optionally dividing by the in-degree (mean). On GPU
// this is gunrock's atomic edge-parallel reduction.
func (g *Graph) naiveScatterAdd(adj *sparse.CSR, msg, out *tensor.Tensor, mean bool) {
	d := out.Dim(1)
	md, od := msg.Data(), out.Data()
	if g.cfg.Target == core.GPU {
		cycles, err := gunrock.ScatterAddByDst(g.cfg.Device, g.edges(adj), msg, out)
		if err != nil {
			panic("dgl: gunrock scatter: " + err.Error())
		}
		g.SimCycles += cycles
	} else {
		g.parallelRows(adj.NumRows, func(rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				orow := od[r*d : (r+1)*d]
				for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
					row := md[int(adj.EID[p])*d : int(adj.EID[p])*d+d]
					for f := range orow {
						orow[f] += row[f]
					}
				}
			}
		})
	}
	if mean {
		// Division by the destination degree; out rows follow adj's rows.
		for r := 0; r < adj.NumRows; r++ {
			if deg := adj.RowPtr[r+1] - adj.RowPtr[r]; deg > 0 {
				inv := 1 / float32(deg)
				orow := od[r*d : (r+1)*d]
				for f := range orow {
					orow[f] *= inv
				}
			}
		}
	}
}

// naiveEdgeDot computes out[e] = x[src(e)] · y[dst(e)].
func (g *Graph) naiveEdgeDot(x, y *tensor.Tensor, out *tensor.Tensor) {
	d := x.Dim(1)
	if g.cfg.Target == core.GPU {
		cycles, err := gunrock.EdgeDot(g.cfg.Device, g.edges(g.adj), x, y, out)
		if err != nil {
			panic("dgl: gunrock edge dot: " + err.Error())
		}
		g.SimCycles += cycles
		return
	}
	xd, yd, od := x.Data(), y.Data(), out.Data()
	adj := g.adj
	g.parallelRows(adj.NumRows, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			yrow := yd[r*d : (r+1)*d]
			for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
				xrow := xd[int(adj.ColIdx[p])*d : int(adj.ColIdx[p])*d+d]
				var s float32
				for f := range yrow {
					s += xrow[f] * yrow[f]
				}
				od[adj.EID[p]] = s
			}
		}
	})
}

// parallelRows splits row processing across the configured CPU threads.
func (g *Graph) parallelRows(n int, body func(lo, hi int)) {
	threads := g.cfg.NumThreads
	if threads <= 1 || n <= 1 {
		body(0, n)
		return
	}
	if threads > n {
		threads = n
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		lo := w * n / threads
		hi := (w + 1) * n / threads
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

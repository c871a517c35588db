// Package gunrock is the edge-parallel GPU baseline on the cudasim device
// (see DESIGN.md): Gunrock in the paper's Table IV and Figure 12, and
// Minigun, the "minimal Gunrock-like" interface whose gather/scatter
// builtins DGL's naive GPU path lowers to (§IV-B). It reduces both to the
// two properties the paper's comparison identifies as decisive for GNN
// workloads:
//
//   - Edge-parallel advance: edges are distributed one per thread across
//     the grid, so vertex-wise reductions (GCN/MLP aggregation, scatter)
//     must use global atomics, whose cost the simulator charges and whose
//     CAS contention is real.
//   - Blackbox edge computation: the per-edge feature work runs serially
//     on its owning thread — no feature-dimension parallelism, no tree
//     reduction, no tiling.
package gunrock

import (
	"fmt"

	"featgraph/internal/cudasim"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Graph is the edge-list view the advance operator consumes.
type Graph struct {
	N     int
	Edges *partition.HilbertEdges // row-major edge arrays (Row=dst, Col=src)
}

// NewGraph builds the edge-list view of a destination-major adjacency.
func NewGraph(csr *sparse.CSR) *Graph {
	return &Graph{N: csr.NumRows, Edges: partition.RowMajorEdges(csr)}
}

// NNZ returns the edge count.
func (g *Graph) NNZ() int { return len(g.Edges.Row) }

// EdgeFunc is the blackbox per-edge computation. It runs on one simulated
// thread and must charge its own work via the block.
type EdgeFunc func(b *cudasim.Block, src, dst, eid int32)

// Advance applies fn to every edge, one edge per thread (256-thread
// blocks, grid-strided), and returns the simulated cycle count. A
// zero-edge graph is an error.
func Advance(dev *cudasim.Device, g *Graph, fn EdgeFunc) (uint64, error) {
	if g.NNZ() == 0 {
		return 0, fmt.Errorf("gunrock: empty graph")
	}
	return advance(dev, g, fn)
}

// advance is Advance for the Minigun builtins, which advance a zero-edge
// graph trivially: DGL's naive GPU path runs them on edgeless graphs.
func advance(dev *cudasim.Device, g *Graph, fn EdgeFunc) (uint64, error) {
	nnz := g.NNZ()
	if nnz == 0 {
		return 0, nil
	}
	threads := 256
	blocks := min((nnz+threads-1)/threads, 65535)
	grid := blocks * threads
	ed := g.Edges
	stats, err := dev.Launch(cudasim.LaunchConfig{Blocks: blocks, ThreadsPerBlock: threads}, func(b *cudasim.Block) {
		base := b.Idx() * threads
		b.ForEachThread(func(tid int) {
			for e := base + tid; e < nnz; e += grid {
				fn(b, ed.Col[e], ed.Row[e], ed.EID[e])
			}
		})
	})
	if err != nil {
		return 0, err
	}
	return stats.SimCycles, nil
}

// GCNAggregation computes out[v] = Σ_{u→v} x[u] with per-element global
// atomics — the execution the paper blames for Gunrock's extreme slowness
// on vertex-wise reductions (Table IV(a)). It reads x[src] directly: no
// message tensor, so it is not GatherSrc followed by ScatterAddByDst.
func GCNAggregation(dev *cudasim.Device, g *Graph, x, out *tensor.Tensor) (uint64, error) {
	d := x.Dim(1)
	xd, od := x.Data(), out.Data()
	out.Zero()
	return Advance(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		xrow := xd[int(src)*d : int(src)*d+d]
		base := int(dst) * d
		for f := 0; f < d; f++ {
			cudasim.AtomicAddFloat32(od, base+f, xrow[f])
		}
		// Serial feature loop, no thread parallelism, one atomic RMW each.
		b.Charge(uint64(d) * (cudasim.CostGlobal + cudasim.CostAtomic))
	})
}

// MLPAggregation computes out[v] = max_{u→v} ReLU((x[u]+x[v]) × W): the
// full MLP runs serially on the owning thread, then each output element is
// folded in with an atomic max.
func MLPAggregation(dev *cudasim.Device, g *Graph, x, w, out *tensor.Tensor) (uint64, error) {
	d1, d2 := w.Dim(0), w.Dim(1)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	out.Zero() // ReLU output is >= 0, so 0 is a safe identity for max here
	return Advance(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		xu := xd[int(src)*d1 : int(src)*d1+d1]
		xv := xd[int(dst)*d1 : int(dst)*d1+d1]
		base := int(dst) * d2
		for i := 0; i < d2; i++ {
			var s float32
			for k := 0; k < d1; k++ {
				s += (xu[k] + xv[k]) * wd[k*d2+i]
			}
			if s < 0 {
				s = 0
			}
			cudasim.AtomicMaxFloat32(od, base+i, s)
		}
		b.Charge(uint64(d2) * (uint64(d1)*(2*cudasim.CostGlobal+2*cudasim.CostFLOP) + cudasim.CostAtomic))
	})
}

// checkMsg returns an error unless msg is an [|E|, d] message tensor of g.
func checkMsg(g *Graph, msg *tensor.Tensor, d int) error {
	if msg.Dim(0) != g.NNZ() || msg.Dim(1) != d {
		return fmt.Errorf("gunrock: msg shape %v, want [%d %d]", msg.Shape(), g.NNZ(), d)
	}
	return nil
}

// GatherSrc materializes msg[eid] = scale[eid] * x[src]; scale may be nil.
func GatherSrc(dev *cudasim.Device, g *Graph, x, msg *tensor.Tensor, scale []float32) (uint64, error) {
	return gather(dev, g, x, msg, scale, false, true)
}

// GatherDst materializes msg[eid] = s * x[dst], with s = 1 when scale is
// nil, scale[eid] when perEdge, and scale[dst] otherwise.
func GatherDst(dev *cudasim.Device, g *Graph, x, msg *tensor.Tensor, scale []float32, perEdge bool) (uint64, error) {
	return gather(dev, g, x, msg, scale, true, perEdge)
}

// gather materializes msg[eid] = s * x[v], v = dst if byDst else src, with
// s = 1 when scale is nil, scale[eid] when perEdge, and scale[v] otherwise.
func gather(dev *cudasim.Device, g *Graph, x, msg *tensor.Tensor, scale []float32, byDst, perEdge bool) (uint64, error) {
	d := x.Dim(1)
	if err := checkMsg(g, msg, d); err != nil {
		return 0, err
	}
	xd, md := x.Data(), msg.Data()
	return advance(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		v, s := src, float32(1)
		if byDst {
			v = dst
		}
		switch {
		case scale == nil:
		case perEdge:
			s = scale[eid]
		default:
			s = scale[v]
		}
		row := md[int(eid)*d : int(eid)*d+d]
		xrow := xd[int(v)*d : int(v)*d+d]
		for f := range row {
			row[f] = s * xrow[f]
		}
		b.Charge(uint64(d) * 2 * cudasim.CostGlobal)
	})
}

// ScatterAddByDst reduces out[dst] += msg[eid] with per-element global
// atomics, GCNAggregation's reduction over a materialized message tensor.
func ScatterAddByDst(dev *cudasim.Device, g *Graph, msg, out *tensor.Tensor) (uint64, error) {
	d := out.Dim(1)
	if err := checkMsg(g, msg, d); err != nil {
		return 0, err
	}
	md, od := msg.Data(), out.Data()
	return advance(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		row := md[int(eid)*d : int(eid)*d+d]
		base := int(dst) * d
		for f := 0; f < d; f++ {
			cudasim.AtomicAddFloat32(od, base+f, row[f])
		}
		b.Charge(uint64(d) * (cudasim.CostGlobal + cudasim.CostAtomic))
	})
}

// EdgeDot computes out[eid] = x[src]·y[dst]: the whole product on one
// thread (Figure 12's naive strategy), with no atomics since each edge
// owns its output. Dot-product attention is EdgeDot(x, x).
func EdgeDot(dev *cudasim.Device, g *Graph, x, y, out *tensor.Tensor) (uint64, error) {
	d := x.Dim(1)
	if y.Dim(1) != d {
		return 0, fmt.Errorf("gunrock: operand widths differ: %d vs %d", d, y.Dim(1))
	}
	xd, yd, od := x.Data(), y.Data(), out.Data()
	return advance(dev, g, func(b *cudasim.Block, src, dst, eid int32) {
		xrow := xd[int(src)*d : int(src)*d+d]
		yrow := yd[int(dst)*d : int(dst)*d+d]
		var s float32
		for f := 0; f < d; f++ {
			s += xrow[f] * yrow[f]
		}
		od[eid] = s
		b.Charge(uint64(d)*(2*cudasim.CostGlobal+cudasim.CostFLOP) + cudasim.CostGlobal)
	})
}

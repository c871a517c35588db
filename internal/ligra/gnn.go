package ligra

import (
	"math"

	"featgraph/internal/tensor"
)

// GNN kernels written against the ligra framework the way a user would
// write them: the feature computation lives inside the blackbox edge
// closure, so the framework cannot tile it against the cache, fuse it with
// traversal, or choose its loop order. These are the baselines of
// Tables III(a–c).

// GCNAggregation computes out[v] = Σ_{u→v} x[u] with a full frontier in
// pull mode.
func GCNAggregation(g *Graph, x, out *tensor.Tensor, threads int) {
	d := x.Dim(1)
	xd, od := x.Data(), out.Data()
	out.Zero()
	EdgeMap(g, FullFrontier(g.N), func(src, dst, eid int32) {
		xrow := xd[int(src)*d : int(src)*d+d]
		orow := od[int(dst)*d : int(dst)*d+d]
		for f := 0; f < d; f++ {
			orow[f] += xrow[f]
		}
	}, threads)
}

// MLPAggregation computes out[v] = max_{u→v} ReLU((x[u]+x[v]) × W), the
// MLP aggregation of Figure 1. The edge closure materializes the message
// and uses the natural (output-major) loop order, which strides through W —
// exactly the blackbox inefficiency the paper describes.
func MLPAggregation(g *Graph, x, w, out *tensor.Tensor, threads int) {
	d1, d2 := w.Dim(0), w.Dim(1)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	out.Fill(float32(math.Inf(-1)))
	EdgeMap(g, FullFrontier(g.N), func(src, dst, eid int32) {
		xu := xd[int(src)*d1 : int(src)*d1+d1]
		xv := xd[int(dst)*d1 : int(dst)*d1+d1]
		orow := od[int(dst)*d2 : int(dst)*d2+d2]
		for i := 0; i < d2; i++ {
			var s float32
			for k := 0; k < d1; k++ {
				s += (xu[k] + xv[k]) * wd[k*d2+i]
			}
			if s < 0 {
				s = 0
			}
			if s > orow[i] {
				orow[i] = s
			}
		}
	}, threads)
	// Isolated vertices aggregate to zero.
	for v := 0; v < g.N; v++ {
		if g.In.RowPtr[v+1] == g.In.RowPtr[v] {
			clear(od[v*d2 : (v+1)*d2])
		}
	}
}

// DotAttention computes att[eid] = x[src] · x[dst] for every edge.
func DotAttention(g *Graph, x, att *tensor.Tensor, threads int) {
	d := x.Dim(1)
	xd, ad := x.Data(), att.Data()
	EdgeMap(g, FullFrontier(g.N), func(src, dst, eid int32) {
		xu := xd[int(src)*d : int(src)*d+d]
		xv := xd[int(dst)*d : int(dst)*d+d]
		var s float32
		for f := 0; f < d; f++ {
			s += xu[f] * xv[f]
		}
		ad[eid] = s
	}, threads)
}

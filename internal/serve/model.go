package serve

import (
	"fmt"
	"math/rand"

	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// Layer is one GraphSage inference layer: out = act(H_dst·Self + M·Neigh)
// with M the mean-aggregated neighbor features. Self and Neigh are
// [in, out] weight matrices of identical shape.
type Layer struct {
	Self  *tensor.Tensor
	Neigh *tensor.Tensor
}

// Model is a stack of GraphSage layers for block inference. Serving is
// forward-only: weights come from an offline training run (nn.GraphSage
// has the same per-layer algebra), so the model is plain tensors with no
// tape, ops, or graph binding — the Batcher supplies blocks and kernels.
type Model struct {
	Layers []Layer
}

// validate checks layer presence and dimension chaining.
func (m Model) validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("serve: model needs at least one layer")
	}
	for i, l := range m.Layers {
		if l.Self == nil || l.Neigh == nil {
			return fmt.Errorf("serve: layer %d has nil weights", i)
		}
		if !l.Self.SameShape(l.Neigh) {
			return fmt.Errorf("serve: layer %d Self %v and Neigh %v shapes differ", i, l.Self.Shape(), l.Neigh.Shape())
		}
		if i > 0 && l.Self.Dim(0) != m.Layers[i-1].Self.Dim(1) {
			return fmt.Errorf("serve: layer %d input width %d does not chain from layer %d output width %d",
				i, l.Self.Dim(0), i-1, m.Layers[i-1].Self.Dim(1))
		}
	}
	return nil
}

// InDim returns the model's input feature width.
func (m Model) InDim() int { return m.Layers[0].Self.Dim(0) }

// OutDim returns the model's output width.
func (m Model) OutDim() int { return m.Layers[len(m.Layers)-1].Self.Dim(1) }

// RandomModel builds a Glorot-initialized model with the given dimension
// chain (dims = [in, hidden..., out]) — benchmark and example fodder;
// real deployments load trained weights.
func RandomModel(rng *rand.Rand, dims ...int) Model {
	if len(dims) < 2 {
		panic("serve: RandomModel needs at least [in, out] dims")
	}
	var m Model
	for i := 0; i+1 < len(dims); i++ {
		l := Layer{Self: tensor.New(dims[i], dims[i+1]), Neigh: tensor.New(dims[i], dims[i+1])}
		l.Self.FillGlorot(rng)
		l.Neigh.FillGlorot(rng)
		m.Layers = append(m.Layers, l)
	}
	return m
}

// apply computes out[r] = act(h[r]·Self + agg[r]·Neigh) for every row of
// out, ReLU when relu is set, in row spans on the shared pool. Each row is
// two tensor.RowKernel folds into a cleared output row, so its bits depend
// only on h[r], agg[r] and the layer shape — the row-level determinism the
// batcher's bitwise batched-vs-solo guarantee needs. h and agg may hold
// more rows than out; only the first out.Dim(0) are read.
func (l Layer) apply(h, agg, out *tensor.Tensor, threads int, relu bool) {
	in, width := l.Self.Dim(0), l.Self.Dim(1)
	hd, ad, od := h.Data(), agg.Data(), out.Data()
	hw := h.Dim(1)
	workpool.Rows(out.Dim(0), 1, threads, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			or := od[r*width : (r+1)*width]
			clear(or)
			tensor.RowKernel(or, hd[r*hw:r*hw+in], l.Self.Data())
			tensor.RowKernel(or, ad[r*hw:r*hw+in], l.Neigh.Data())
			if relu {
				for j, v := range or {
					or[j] = max(v, 0)
				}
			}
		}
	})
}

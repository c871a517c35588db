package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/schedule"
	"featgraph/internal/tensor"
)

// TestScheduleIndependentBits is the invariant the engine's scheduling rests
// on: chunking and work stealing decide which runner computes a row or an
// edge, never the arithmetic order within it, so the thread count cannot
// change a single bit of the output. Graph partitioning regroups a row's
// neighbours (vec.SumRows folds them four at a time within a partition), so
// across partition counts the outputs agree with each other only as far as
// each agrees with the serial reference.
func TestScheduleIndependentBits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, d = 300, 24
	adj := graphgen.TwoTier(rng, n, 0.2, 30, 3).Transpose()
	adjT := adj.Transpose()
	m := adj.NNZ()
	x, x8, w, e1 := randT(rng, n, d), randT(rng, n, 8), randT(rng, 8, d), randT(rng, m, 1)
	threadCounts := []int{1, 4, 7}

	// sweep runs build under every (partitions, threads) pair, requiring
	// bitwise agreement across thread counts and returning one output per
	// partition count.
	sweep := func(what string, parts []int, build func(core.Options) (kernel, error)) []*tensor.Tensor {
		var perPart []*tensor.Tensor
		for _, p := range parts {
			var first *tensor.Tensor
			for _, threads := range threadCounts {
				cfg := fmt.Sprintf("%s parts=%d threads=%d", what, p, threads)
				k, err := build(core.Options{Target: core.CPU, NumThreads: threads, GraphPartitions: p})
				out := runTwice(t, cfg, k, err)
				if first == nil {
					first = out
				}
				requireBitwise(t, cfg, out, first)
			}
			perPart = append(perPart, first)
		}
		return perPart
	}

	for _, wl := range []struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
	}{
		{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}},
		{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, m, d), []*tensor.Tensor{x, e1}},
		{"mlp", expr.MLPMessage(n, 8, d), []*tensor.Tensor{x8, w}},
	} {
		for _, agg := range []core.AggOp{core.AggSum, core.AggMax, core.AggMean} {
			what := "spmm " + wl.name + "/" + agg.String()
			want, err := core.ReferenceSpMM(adj, wl.udf, wl.inputs, agg)
			if err != nil {
				t.Fatal(err)
			}
			fds := schedule.New().Split(wl.udf.OutAxes[0], 8)
			for _, out := range sweep(what, []int{1, 4}, func(o core.Options) (kernel, error) {
				return core.BuildSpMM(adj, wl.udf, wl.inputs, agg, fds, o)
			}) {
				requireClose(t, what, out, want)
			}
		}
	}

	// SDDMM and the fused kernels ignore graph partitioning: an edge, or a
	// destination row's whole in-edge set, is computed in one piece.
	for _, wl := range []struct {
		name string
		udf  *expr.UDF
	}{
		{"dot", expr.DotAttention(n, d)},
		{"add-src-dst", expr.AddSrcDst(n, d)},
	} {
		for _, hilbert := range []bool{false, true} {
			what := fmt.Sprintf("sddmm %s hilbert=%v", wl.name, hilbert)
			want, err := core.ReferenceSDDMM(adj, wl.udf, []*tensor.Tensor{x})
			if err != nil {
				t.Fatal(err)
			}
			fds := schedule.New().Split(wl.udf.OutAxes[0], 8)
			out := sweep(what, []int{1}, func(o core.Options) (kernel, error) {
				o.Hilbert = hilbert
				return core.BuildSDDMM(adj, wl.udf, []*tensor.Tensor{x}, fds, o)
			})
			requireClose(t, what, out[0], want)
		}
	}

	alpha, deriv, dout := tensor.New(m, 1), tensor.New(m, 1), randT(rng, n, d)
	cfg := core.FusedAttnConfig{NegSlope: 0.2, Scale: 0.25}
	sweep("fused forward", []int{1}, func(o core.Options) (kernel, error) {
		return core.BuildFusedAttention(adj, x, x, alpha, deriv, cfg, o)
	})
	// alpha and deriv now hold the last forward's values — the same bits
	// whichever thread count ran it, by the sweep above.
	sweep("fused backward", []int{1}, func(o core.Options) (kernel, error) {
		return core.BuildFusedAttentionBwd(adj, adjT, x, x, alpha, deriv, dout, o)
	})
}

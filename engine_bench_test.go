// Benchmarks for the persistent execution engine: skewed-degree scheduling,
// steady-state allocation behavior, and telemetry overhead. fgbench's
// kernels_inmem workload carries the end-to-end numbers (benchmark/).
package featgraph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"featgraph"
	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// skewedRowGraph builds a rand-100K-style two-tier graph and transposes it
// so the degree skew lands on the rows — the axis SpMM splits across
// workers, where a uniform row split leaves one worker with most of the
// edges.
func skewedRowGraph(n int) *sparse.CSR {
	rng := rand.New(rand.NewSource(7))
	return graphgen.TwoTier(rng, n, 0.2, 60, 4).Transpose()
}

// BenchmarkEngineSkewedSpMM is the headline scheduling benchmark: GCN-style
// aggregation over a skewed-row-degree graph with NumThreads >= 4 and a
// partitioned, tiled schedule (many dispatch phases per run).
func BenchmarkEngineSkewedSpMM(b *testing.B) {
	const n, d = 16384, 32
	adj := skewedRowGraph(n)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(n, d)
	x.FillUniform(rng, -1, 1)
	out := tensor.New(n, d)
	for _, threads := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			udf := expr.CopySrc(n, d)
			fds := schedule.New().Split(udf.OutAxes[0], d/2)
			k, err := core.BuildSpMM(adj, udf, []*tensor.Tensor{x}, core.AggSum, fds,
				core.Options{Target: core.CPU, NumThreads: threads, GraphPartitions: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSteadyStateAllocs measures per-run allocations of a built
// kernel — the steady state of a training loop, which the engine makes
// allocation-free.
func BenchmarkEngineSteadyStateAllocs(b *testing.B) {
	const n, d = 2048, 32
	rng := rand.New(rand.NewSource(9))
	adj := sparse.Random(rng, n, n, 8)
	x := tensor.New(n, d)
	x.FillUniform(rng, -1, 1)
	out := tensor.New(n, d)
	opts := core.Options{Target: core.CPU, NumThreads: 4}
	b.Run("spmm-cpu", func(b *testing.B) {
		k, err := core.BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Run(out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sddmm-cpu", func(b *testing.B) {
		att := tensor.New(adj.NNZ(), 1)
		k, err := core.BuildSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x}, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Run(att); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineTelemetryOverhead measures the observability layer's cost
// on the steady-state run path: recording disabled (the budget is a few
// atomic loads per run, and — asserted by TestDisabledTelemetryRunIsAllocFree
// — zero allocations), enabled process-wide, and enabled per kernel via
// Options.Metrics.
func BenchmarkEngineTelemetryOverhead(b *testing.B) {
	const n, d = 2048, 32
	rng := rand.New(rand.NewSource(10))
	adj := sparse.Random(rng, n, n, 8)
	x := tensor.New(n, d)
	x.FillUniform(rng, -1, 1)
	out := tensor.New(n, d)
	for _, mode := range []struct {
		name   string
		global bool
		kernel bool
	}{{"disabled", false, false}, {"enabled", true, false}, {"kernel-opt-in", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			featgraph.SetMetricsEnabled(mode.global)
			defer featgraph.SetMetricsEnabled(false)
			k, err := core.BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum, nil,
				core.Options{Target: core.CPU, NumThreads: 4, Metrics: mode.kernel})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// DESIGN.md §4). These are micro-scale versions sized for `go test
// -bench=.`; the featbench command runs the full-table versions and prints
// paper-style rows.
//
// GPU benchmarks additionally report simulated cycles per op
// (Mcycles/op) — the metric the cost model defines — since host wall time
// of the simulator is not the object of study.
package featgraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/cusparse"
	"featgraph/internal/dgl"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/gunrock"
	"featgraph/internal/ligra"
	"featgraph/internal/mkl"
	"featgraph/internal/nn"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

const (
	benchN   = 1500
	benchDeg = 16
	benchD   = 64
	benchD1  = 8
)

var benchSetup struct {
	once sync.Once
	adj  *sparse.CSR
	x    *tensor.Tensor // [n, benchD]
	x8   *tensor.Tensor // [n, benchD1]
	w    *tensor.Tensor // [benchD1, benchD]
	lg   *ligra.Graph
	gg   *gunrock.Graph
	dev  *cudasim.Device
}

func setup(b *testing.B) {
	b.Helper()
	benchSetup.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		benchSetup.adj = graphgen.Skewed(rng, benchN, benchDeg, 1.4)
		benchSetup.x = tensor.New(benchN, benchD)
		benchSetup.x.FillUniform(rng, -1, 1)
		benchSetup.x8 = tensor.New(benchN, benchD1)
		benchSetup.x8.FillUniform(rng, -1, 1)
		benchSetup.w = tensor.New(benchD1, benchD)
		benchSetup.w.FillUniform(rng, -1, 1)
		benchSetup.lg = ligra.NewGraph(benchSetup.adj)
		benchSetup.gg = gunrock.NewGraph(benchSetup.adj)
		benchSetup.dev = cudasim.NewDevice(cudasim.Config{})
	})
}

func fgGCNKernel(b *testing.B, opts core.Options, tile int) *core.SpMMKernel {
	b.Helper()
	udf := expr.CopySrc(benchN, benchD)
	fds := schedule.New()
	if tile > 0 {
		fds.Split(udf.OutAxes[0], tile)
	}
	if opts.Target == core.GPU {
		fds.Bind(udf.OutAxes[0], schedule.ThreadX)
	}
	k, err := core.BuildSpMM(benchSetup.adj, udf, []*tensor.Tensor{benchSetup.x}, core.AggSum, fds, opts)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func reportCycles(b *testing.B, total uint64) {
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "Mcycles/op")
}

// BenchmarkTable3a: single-threaded CPU GCN aggregation across systems.
func BenchmarkTable3aGCNAggregation(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	b.Run("Ligra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.GCNAggregation(benchSetup.lg, benchSetup.x, out, 1)
		}
	})
	b.Run("MKL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mkl.CSRMM(benchSetup.adj, benchSetup.x, out, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FeatGraph", func(b *testing.B) {
		k := fgGCNKernel(b, core.Options{Target: core.CPU}, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Run(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3b: single-threaded CPU MLP aggregation.
func BenchmarkTable3bMLPAggregation(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	b.Run("Ligra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.MLPAggregation(benchSetup.lg, benchSetup.x8, benchSetup.w, out, 1)
		}
	})
	b.Run("FeatGraph", func(b *testing.B) {
		udf := expr.MLPMessage(benchN, benchD1, benchD)
		k, err := core.BuildSpMM(benchSetup.adj, udf, []*tensor.Tensor{benchSetup.x8, benchSetup.w},
			core.AggMax, nil, core.Options{Target: core.CPU})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Run(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3c: single-threaded CPU dot-product attention.
func BenchmarkTable3cDotAttention(b *testing.B) {
	setup(b)
	att := tensor.New(benchSetup.adj.NNZ(), 1)
	b.Run("Ligra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ligra.DotAttention(benchSetup.lg, benchSetup.x, att, 1)
		}
	})
	b.Run("FeatGraph", func(b *testing.B) {
		k, err := core.BuildSDDMM(benchSetup.adj, expr.DotAttention(benchN, benchD),
			[]*tensor.Tensor{benchSetup.x}, nil, core.Options{Target: core.CPU, Hilbert: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Run(att); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10: FeatGraph GCN aggregation across thread counts.
func BenchmarkFig10Scalability(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			k := fgGCNKernel(b, core.Options{Target: core.CPU, NumThreads: threads}, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11: the tiling × partitioning ablation.
func BenchmarkFig11Ablation(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	variants := []struct {
		name     string
		gp, tile int
	}{
		{"baseline", 1, 0},
		{"tiling", 1, benchD / 4},
		{"partitioning", 16, 0},
		{"both", 16, benchD / 4},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			k := fgGCNKernel(b, core.Options{Target: core.CPU, GraphPartitions: v.gp}, v.tile)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14: points of the partitioning-factor grid.
func BenchmarkFig14PartitionGrid(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	for _, gp := range []int{1, 16, 64} {
		for _, fp := range []int{1, 4} {
			tile := 0
			if fp > 1 {
				tile = benchD / fp
			}
			b.Run(fmt.Sprintf("gp-%d-fp-%d", gp, fp), func(b *testing.B) {
				k := fgGCNKernel(b, core.Options{Target: core.CPU, GraphPartitions: gp}, tile)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.Run(out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4a: GPU GCN aggregation across systems (cycles metric).
func BenchmarkTable4aGPUGCN(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	b.Run("Gunrock", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			c, err := gunrock.GCNAggregation(benchSetup.dev, benchSetup.gg, benchSetup.x, out)
			if err != nil {
				b.Fatal(err)
			}
			total += c
		}
		reportCycles(b, total)
	})
	b.Run("cuSPARSE", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			c, err := cusparse.CSRMM(benchSetup.dev, benchSetup.adj, benchSetup.x, out)
			if err != nil {
				b.Fatal(err)
			}
			total += c
		}
		reportCycles(b, total)
	})
	b.Run("FeatGraph", func(b *testing.B) {
		k := fgGCNKernel(b, core.Options{Target: core.GPU, Device: benchSetup.dev}, 0)
		b.ResetTimer()
		var total uint64
		for i := 0; i < b.N; i++ {
			stats, err := k.Run(out)
			if err != nil {
				b.Fatal(err)
			}
			total += stats.SimCycles
		}
		reportCycles(b, total)
	})
}

// BenchmarkTable4b: GPU MLP aggregation.
func BenchmarkTable4bGPUMLP(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	b.Run("Gunrock", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			c, err := gunrock.MLPAggregation(benchSetup.dev, benchSetup.gg, benchSetup.x8, benchSetup.w, out)
			if err != nil {
				b.Fatal(err)
			}
			total += c
		}
		reportCycles(b, total)
	})
	b.Run("FeatGraph", func(b *testing.B) {
		udf := expr.MLPMessage(benchN, benchD1, benchD)
		fds := schedule.New().Bind(udf.OutAxes[0], schedule.ThreadX)
		k, err := core.BuildSpMM(benchSetup.adj, udf, []*tensor.Tensor{benchSetup.x8, benchSetup.w},
			core.AggMax, fds, core.Options{Target: core.GPU, Device: benchSetup.dev})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var total uint64
		for i := 0; i < b.N; i++ {
			stats, err := k.Run(out)
			if err != nil {
				b.Fatal(err)
			}
			total += stats.SimCycles
		}
		reportCycles(b, total)
	})
}

// BenchmarkTable4c / BenchmarkFig12: GPU dot attention with and without
// tree reduction, against Gunrock.
func BenchmarkTable4cGPUDot(b *testing.B) {
	setup(b)
	att := tensor.New(benchSetup.adj.NNZ(), 1)
	b.Run("Gunrock", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			c, err := gunrock.DotAttention(benchSetup.dev, benchSetup.gg, benchSetup.x, att)
			if err != nil {
				b.Fatal(err)
			}
			total += c
		}
		reportCycles(b, total)
	})
	for _, tree := range []bool{false, true} {
		name := "FeatGraph-naive"
		if tree {
			name = "FeatGraph-tree-reduction"
		}
		b.Run(name, func(b *testing.B) {
			udf := expr.DotAttention(benchN, benchD)
			fds := schedule.New()
			if tree {
				if red, ok := udf.Body.(*expr.Reduce); ok {
					fds.TreeReduce(red.Axis, schedule.ThreadX)
				}
			}
			k, err := core.BuildSDDMM(benchSetup.adj, udf, []*tensor.Tensor{benchSetup.x}, fds,
				core.Options{Target: core.GPU, Device: benchSetup.dev})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				stats, err := k.Run(att)
				if err != nil {
					b.Fatal(err)
				}
				total += stats.SimCycles
			}
			reportCycles(b, total)
		})
	}
}

// BenchmarkFig13: hybrid partitioning on a two-tier graph.
func BenchmarkFig13HybridPartitioning(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	adj := graphgen.TwoTier(rng, benchN, 0.2, 60, 4)
	x := tensor.New(benchN, benchD)
	x.FillUniform(rng, -1, 1)
	dev := cudasim.NewDevice(cudasim.Config{})
	out := tensor.New(benchN, benchD)
	threshold := int32(4 * adj.NNZ() / adj.NumCols)
	for _, hybrid := range []int32{0, threshold} {
		name := "off"
		if hybrid > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			udf := expr.CopySrc(benchN, benchD)
			fds := schedule.New().Bind(udf.OutAxes[0], schedule.ThreadX)
			k, err := core.BuildSpMM(adj, udf, []*tensor.Tensor{x}, core.AggSum, fds,
				core.Options{Target: core.GPU, Device: dev, HybridThreshold: hybrid})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				stats, err := k.Run(out)
				if err != nil {
					b.Fatal(err)
				}
				total += stats.SimCycles
			}
			reportCycles(b, total)
		})
	}
}

// BenchmarkFig15: CUDA grid-size sensitivity.
func BenchmarkFig15Blocks(b *testing.B) {
	setup(b)
	out := tensor.New(benchN, benchD)
	for _, blocks := range []int{16, 128, benchN} {
		b.Run(fmt.Sprintf("blocks-%d", blocks), func(b *testing.B) {
			udf := expr.CopySrc(benchN, benchD)
			fds := schedule.New().Bind(udf.OutAxes[0], schedule.ThreadX)
			k, err := core.BuildSpMM(benchSetup.adj, udf, []*tensor.Tensor{benchSetup.x}, core.AggSum, fds,
				core.Options{Target: core.GPU, Device: benchSetup.dev, NumBlocks: blocks})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				stats, err := k.Run(out)
				if err != nil {
					b.Fatal(err)
				}
				total += stats.SimCycles
			}
			reportCycles(b, total)
		})
	}
}

// BenchmarkTable5: sparsity sensitivity vs MKL.
func BenchmarkTable5Sparsity(b *testing.B) {
	const n, d = 1000, benchD
	for _, deg := range []int{1, 10, 100} {
		rng := rand.New(rand.NewSource(3))
		adj := graphgen.Uniform(rng, n, deg)
		x := tensor.New(n, d)
		x.FillUniform(rng, -1, 1)
		out := tensor.New(n, d)
		sparsity := 100 * (1 - float64(deg)/float64(n))
		b.Run(fmt.Sprintf("sparsity-%.1f%%/MKL", sparsity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mkl.CSRMM(adj, x, out, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sparsity-%.1f%%/FeatGraph", sparsity), func(b *testing.B) {
			k, err := core.BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum, nil,
				core.Options{Target: core.CPU})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable6: one training epoch per model × backend.
func BenchmarkTable6Training(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ds := graphgen.PlantedCommunities(rng, 800, 4, 10, 3, 32)
	for _, model := range []string{"gcn", "graphsage", "gat"} {
		for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
			b.Run(fmt.Sprintf("%s/%s", model, backend), func(b *testing.B) {
				g, err := dgl.New(ds.Adj, dgl.Config{Backend: backend, Target: core.CPU})
				if err != nil {
					b.Fatal(err)
				}
				var m nn.Model
				mrng := rand.New(rand.NewSource(5))
				switch model {
				case "gcn":
					m, err = nn.NewGCN(g, 32, 64, ds.NumClasses, mrng)
				case "graphsage":
					m, err = nn.NewGraphSage(g, 32, 32, ds.NumClasses, mrng)
				case "gat":
					m, err = nn.NewGAT(g, 32, 32, ds.NumClasses, mrng)
				}
				if err != nil {
					b.Fatal(err)
				}
				opt := nn.NewAdam(0.01)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := nn.TrainEpochCtx(context.Background(), m, ds.Features, ds.Labels, ds.TrainMask, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationFusion isolates DESIGN.md decision 1: fused kernels vs
// materialized messages for one aggregation.
func BenchmarkAblationFusion(b *testing.B) {
	setup(b)
	x := benchSetup.x
	for _, backend := range []dgl.Backend{dgl.Naive, dgl.FeatGraph} {
		b.Run(backend.String(), func(b *testing.B) {
			g, err := dgl.New(benchSetup.adj, dgl.Config{Backend: backend, Target: core.CPU})
			if err != nil {
				b.Fatal(err)
			}
			op, err := g.NewCopySum(benchD)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := newTape()
				op.ApplyCtx(context.Background(), tp, tp.Input(x), nil)
			}
		})
	}
}

// BenchmarkAblationHilbert isolates DESIGN.md decision 5: Hilbert-curve vs
// row-major edge traversal for SDDMM.
func BenchmarkAblationHilbert(b *testing.B) {
	setup(b)
	att := tensor.New(benchSetup.adj.NNZ(), 1)
	for _, hilbert := range []bool{false, true} {
		name := "row-major"
		if hilbert {
			name = "hilbert"
		}
		b.Run(name, func(b *testing.B) {
			k, err := core.BuildSDDMM(benchSetup.adj, expr.DotAttention(benchN, benchD),
				[]*tensor.Tensor{benchSetup.x}, nil, core.Options{Target: core.CPU, Hilbert: hilbert})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(att); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newTape avoids importing autodiff twice across benchmark helpers.
func newTape() *autodiff.Tape { return autodiff.NewTape() }

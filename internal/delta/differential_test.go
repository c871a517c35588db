package delta

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// TestDifferentialKernelsAcrossVersions mutates a graph through a stream
// of versions and, at every version, runs the three kernel families —
// SpMM (copy-sum aggregation), SDDMM (edge dot), and the fused attention
// kernel — on the engine's materialized snapshot and on a from-scratch
// rebuild of the same edge set. Outputs must agree bitwise on the naive
// and FeatGraph backends alike: the incremental overlay path must be
// indistinguishable from a stop-the-world rebuild.
func TestDifferentialKernelsAcrossVersions(t *testing.T) {
	const (
		n = 24
		d = 6
	)
	rng := rand.New(rand.NewSource(77))
	base := sparse.Random(rng, n, n, 4)
	e, err := New(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	model := newEdgeModel(base)

	x := tensor.New(n, d)
	x.FillUniform(rng, -1, 1)
	y := tensor.New(n, d)
	y.FillUniform(rng, -1, 1)

	configs := map[string]dgl.Config{
		"naive-cpu":     {Backend: dgl.Naive, Target: core.CPU},
		"featgraph-cpu": {Backend: dgl.FeatGraph, Target: core.CPU, NumThreads: 3, GraphPartitions: 2, FeatureTileFactor: 3},
	}

	check := func(ver uint64, snapCSR, rebuilt *sparse.CSR) {
		t.Helper()
		requireSameCSR(t, snapCSR, rebuilt, fmt.Sprintf("v%d topology", ver))
		for name, cfg := range configs {
			gs, err := dgl.New(snapCSR, cfg)
			if err != nil {
				t.Fatalf("v%d %s: snapshot graph: %v", ver, name, err)
			}
			gr, err := dgl.New(rebuilt, cfg)
			if err != nil {
				t.Fatalf("v%d %s: rebuilt graph: %v", ver, name, err)
			}
			run := func(g *dgl.Graph) (spmm, sddmm, attn []float32) {
				tp := autodiff.NewTape()
				vx, vy := tp.Input(x), tp.Input(y)
				sum, err := g.NewCopySum(d)
				if err != nil {
					t.Fatalf("v%d %s: copy-sum: %v", ver, name, err)
				}
				dot, err := g.NewDot(d)
				if err != nil {
					t.Fatalf("v%d %s: dot: %v", ver, name, err)
				}
				fa, err := g.NewFusedAttention(d)
				if err != nil {
					t.Fatalf("v%d %s: fused attention: %v", ver, name, err)
				}
				return sum.ApplyCtx(context.Background(), tp, vx, nil).Value.Data(),
					dot.ApplyCtx(context.Background(), tp, vx, vy, nil).Value.Data(),
					fa.ApplyCtx(context.Background(), tp, vx, vy, nil).Value.Data()
			}
			s1, d1, a1 := run(gs)
			s2, d2, a2 := run(gr)
			for what, pair := range map[string][2][]float32{
				"spmm":      {s1, s2},
				"sddmm":     {d1, d2},
				"fusedattn": {a1, a2},
			} {
				got, want := pair[0], pair[1]
				if len(got) != len(want) {
					t.Fatalf("v%d %s %s: %d vs %d outputs", ver, name, what, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("v%d %s %s: output[%d] = %v on snapshot, %v on rebuild",
							ver, name, what, i, got[i], want[i])
					}
				}
			}
		}
	}

	// Version 0, then every mutated version.
	s := e.Acquire()
	check(0, s.CSR(), model.rebuild(t))
	s.Release()
	for v := 1; v <= 8; v++ {
		b := model.randomBatch(rng, 1+rng.Intn(4), rng.Intn(2))
		if _, err := e.Commit(b); err != nil {
			t.Fatalf("commit v%d: %v", v, err)
		}
		model.apply(b)
		s := e.Acquire()
		check(uint64(v), s.CSR(), model.rebuild(t))
		s.Release()
	}
}

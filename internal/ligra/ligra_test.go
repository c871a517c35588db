package ligra

import (
	"math/rand"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func randGraph(t *testing.T, seed int64, n, deg int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return NewGraph(sparse.Random(rng, n, n, deg))
}

func TestFrontierBasics(t *testing.T) {
	full := FullFrontier(5)
	if len(full) != 5 {
		t.Fatalf("FullFrontier(5) has %d vertices", len(full))
	}
	for v := int32(0); v < 5; v++ {
		if !full.Has(v) {
			t.Fatalf("FullFrontier(5) lacks vertex %d", v)
		}
	}
	f := Frontier{false, true, false}
	if f.Has(0) || !f.Has(1) || f.Has(2) {
		t.Fatalf("Has disagrees with the dense flags %v", f)
	}
}

func TestEdgeMapVisitsEveryEdgeOnceFullFrontier(t *testing.T) {
	g := randGraph(t, 1, 30, 4)
	for _, threads := range []int{1, 4} {
		visited := make([]int32, g.In.NNZ())
		EdgeMap(g, FullFrontier(g.N), func(src, dst, eid int32) {
			visited[eid]++ // pull mode: dst rows exclusive per goroutine,
			// but eids are globally unique so this is race-free anyway
		}, threads)
		for e, c := range visited {
			if c != 1 {
				t.Fatalf("threads=%d: edge %d visited %d times", threads, e, c)
			}
		}
	}
}

// TestEdgeMapPullSkipsInactiveSources: over a partial dense frontier, an
// edge reaches the closure exactly once, with its own (src, dst), when its
// source is active, and never otherwise.
func TestEdgeMapPullSkipsInactiveSources(t *testing.T) {
	g := randGraph(t, 11, 40, 5)
	f := make(Frontier, g.N)
	for v := range f {
		f[v] = v%3 == 0 || v == 7
	}
	for _, threads := range []int{1, 4} {
		visited := make([]int32, g.In.NNZ())
		gotSrc := make([]int32, g.In.NNZ())
		gotDst := make([]int32, g.In.NNZ())
		EdgeMap(g, f, func(src, dst, eid int32) {
			visited[eid]++
			gotSrc[eid], gotDst[eid] = src, dst
		}, threads)
		active := 0
		for r := 0; r < g.N; r++ {
			for p := g.In.RowPtr[r]; p < g.In.RowPtr[r+1]; p++ {
				src, eid := g.In.ColIdx[p], g.In.EID[p]
				switch {
				case !f[src] && visited[eid] != 0:
					t.Fatalf("threads=%d: edge %d from inactive source %d reached the closure", threads, eid, src)
				case f[src] && visited[eid] != 1:
					t.Fatalf("threads=%d: edge %d from active source %d visited %d times", threads, eid, src, visited[eid])
				case f[src] && (gotSrc[eid] != src || gotDst[eid] != int32(r)):
					t.Fatalf("threads=%d: edge %d got (%d→%d), want (%d→%d)", threads, eid, gotSrc[eid], gotDst[eid], src, r)
				}
				if f[src] {
					active++
				}
			}
		}
		if active == 0 || active == g.In.NNZ() {
			t.Fatalf("frontier covers %d of %d edges; the test needs a partial one", active, g.In.NNZ())
		}
	}
}

func TestGCNAggregationMatchesFeatGraphReference(t *testing.T) {
	g := randGraph(t, 5, 30, 4)
	const d = 8
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(g.N, d)
	x.FillUniform(rng, -1, 1)
	want, err := core.ReferenceSpMM(g.In, expr.CopySrc(g.N, d), []*tensor.Tensor{x}, core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		out := tensor.New(g.N, d)
		GCNAggregation(g, x, out, threads)
		if !out.AllClose(want, 1e-4) {
			t.Fatalf("threads=%d: max diff %v", threads, out.MaxAbsDiff(want))
		}
	}
}

func TestMLPAggregationMatchesFeatGraphReference(t *testing.T) {
	g := randGraph(t, 7, 25, 3)
	const d1, d2 = 8, 12
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(g.N, d1)
	w := tensor.New(d1, d2)
	x.FillUniform(rng, -1, 1)
	w.FillUniform(rng, -1, 1)
	want, err := core.ReferenceSpMM(g.In, expr.MLPMessage(g.N, d1, d2), []*tensor.Tensor{x, w}, core.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		out := tensor.New(g.N, d2)
		MLPAggregation(g, x, w, out, threads)
		if !out.AllClose(want, 1e-3) {
			t.Fatalf("threads=%d: max diff %v", threads, out.MaxAbsDiff(want))
		}
	}
}

func TestDotAttentionMatchesFeatGraphReference(t *testing.T) {
	g := randGraph(t, 9, 30, 4)
	const d = 16
	rng := rand.New(rand.NewSource(10))
	x := tensor.New(g.N, d)
	x.FillUniform(rng, -1, 1)
	want, err := core.ReferenceSDDMM(g.In, expr.DotAttention(g.N, d), []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		att := tensor.New(g.In.NNZ(), 1)
		DotAttention(g, x, att, threads)
		if !att.AllClose(want, 1e-3) {
			t.Fatalf("threads=%d: max diff %v", threads, att.MaxAbsDiff(want))
		}
	}
}

package graphio_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"featgraph/internal/core"
	"featgraph/internal/expr"
	"featgraph/internal/graphio"
	"featgraph/internal/oracle"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// The sharded SpMM executor over a real shard file, mapped and read, under a
// budget below one shard (every pass loads every shard, into recycled
// arrays after the first) and an unlimited one (the second pass hits):
// two passes on each handle give the same bits, on every handle, and
// match the in-memory kernel within oracle.DefaultTol.
func TestShardedKernelsOverShardFile(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	const n, d = 300, 12
	// Row degrees 0–19, and row 7 heavier than a shard, so shards differ in
	// row layout and boundaries split rows: a load that kept the row
	// pointers of the shard whose arrays it reuses would be caught.
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for r := 0; r < n; r++ {
		deg := rng.Intn(20)
		if r == 7 {
			deg = 280
		}
		for _, c := range rng.Perm(n)[:deg] {
			coo.Row, coo.Col = append(coo.Row, int32(r)), append(coo.Col, int32(c))
		}
	}
	g, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Val {
		g.Val[i] = rng.Float32()
	}
	path := filepath.Join(t.TempDir(), "g.fgs")
	if err := graphio.SaveSharded(path, g, 256); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x, e := tensor.New(n, d), tensor.New(g.NNZ(), 1)
	for _, in := range []*tensor.Tensor{x, e} {
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()*2 - 1
		}
	}

	type source struct {
		name   string
		budget int64
		s      *graphio.ShardedCSR
	}
	// openSources opens the file both ways under both budgets, afresh, so
	// each kernel's first pass is cold on every handle.
	openSources := func(t *testing.T) []source {
		var sources []source
		for _, budget := range []int64{1, 0} {
			file, err := graphio.OpenSharded(path, graphio.ShardedOptions{BudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { file.Close() })
			reader, err := graphio.OpenShardedReader(bytes.NewReader(blob), int64(len(blob)), graphio.ShardedOptions{BudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reader.Close() })
			sources = append(sources, source{fmt.Sprintf("file/budget=%d", budget), budget, file},
				source{fmt.Sprintf("reader/budget=%d", budget), budget, reader})
		}
		if sources[0].s.NumShards() < 8 {
			t.Fatalf("%d shards; the test wants 8+", sources[0].s.NumShards())
		}
		return sources
	}

	opts := core.Options{Target: core.CPU, NumThreads: 2}
	type kcase struct {
		name    string
		inmem   func() (core.Kernel, error)
		sharded func(src core.ShardSource) (core.Kernel, error)
	}
	var cases []kcase
	for _, u := range []struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
	}{
		{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}},
		{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, g.NNZ(), d), []*tensor.Tensor{x, e}},
	} {
		for _, agg := range []core.AggOp{core.AggSum, core.AggMax, core.AggMin, core.AggMean} {
			cases = append(cases, kcase{"spmm/" + u.name + "/" + agg.String(),
				func() (core.Kernel, error) { return core.BuildSpMM(g, u.udf, u.inputs, agg, nil, opts) },
				func(src core.ShardSource) (core.Kernel, error) {
					return core.BuildShardedSpMM(src, u.udf, u.inputs, agg, nil, opts, nil)
				}})
		}
	}

	ctx := context.Background()
	tol := oracle.DefaultTol()
	for _, kc := range cases {
		t.Run(kc.name, func(t *testing.T) {
			mk, err := kc.inmem()
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := mk.OutShape()
			want := tensor.New(rows, cols)
			if _, err := mk.RunCtx(ctx, want); err != nil {
				t.Fatal(err)
			}
			var first []float32
			for _, src := range openSources(t) {
				k, err := kc.sharded(src.s)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					before := src.s.Stats()
					out := tensor.New(k.OutShape())
					if _, err := k.RunCtx(ctx, out); err != nil {
						t.Fatalf("%s pass %d: %v", src.name, pass, err)
					}
					after := src.s.Stats()
					if cold := src.budget > 0 || pass == 0; cold != (after.Loads > before.Loads) || !cold && after.Hits == before.Hits {
						t.Fatalf("%s pass %d: %d loads, %d hits; want a cold pass %v", src.name, pass,
							after.Loads-before.Loads, after.Hits-before.Hits, cold)
					}
					if first == nil {
						first = out.Data()
						for i, v := range first {
							if !tol.Close(v, want.Data()[i]) {
								t.Fatalf("%s: element %d = %v, the in-memory kernel gives %v", src.name, i, v, want.Data()[i])
							}
						}
						continue
					}
					for i, v := range out.Data() {
						if math.Float32bits(v) != math.Float32bits(first[i]) {
							t.Fatalf("%s pass %d: element %d = %#x, the first pass gave %#x", src.name, pass, i, math.Float32bits(v), math.Float32bits(first[i]))
						}
					}
				}
			}
		})
	}
}

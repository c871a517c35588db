package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/graphgen"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func TestNumChunksFor(t *testing.T) {
	cases := []struct {
		threads, rows, nnz int
		want               int
	}{
		{1, 1000, 10000, 1},    // single-threaded: no point splitting
		{0, 1000, 10000, 1},    // unset threads behave like 1
		{4, 1, 10, 1},          // one row can't be split
		{4, 1000, 100, 4},      // tiny edge count: floor at threads
		{4, 8, 1 << 20, 8},     // chunk count never exceeds rows
		{4, 1000, 1 << 20, 16}, // plenty of edges: threads*chunksPerRunner
	}
	for _, c := range cases {
		if got := numChunksFor(c.threads, c.rows, c.nnz); got != c.want {
			t.Errorf("numChunksFor(%d, %d, %d) = %d, want %d", c.threads, c.rows, c.nnz, got, c.want)
		}
	}
}

func TestEdgeBalancedChunksCoverAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := graphgen.TwoTier(rng, 4000, 0.1, 80, 3).Transpose()
	nnz := adj.NNZ()
	maxDeg := 0
	for r := 0; r < adj.NumRows; r++ {
		maxDeg = max(maxDeg, adj.RowDegree(r))
	}
	for _, nchunks := range []int{1, 3, 16, 64} {
		chunks := edgeBalancedChunks(adj, nchunks)
		next := 0
		for _, c := range chunks {
			if c.Lo != next || c.Hi <= c.Lo {
				t.Fatalf("nchunks=%d: chunk %+v not contiguous from %d", nchunks, c, next)
			}
			next = c.Hi
			edges := int(adj.RowPtr[c.Hi] - adj.RowPtr[c.Lo])
			// Balance: no chunk exceeds its even share by more than one
			// row's worth of edges (a single row is indivisible).
			if limit := nnz/nchunks + maxDeg; edges > limit {
				t.Errorf("nchunks=%d: chunk %+v has %d edges, limit %d", nchunks, c, edges, limit)
			}
		}
		if next != adj.NumRows {
			t.Fatalf("nchunks=%d: chunks end at %d, want %d", nchunks, next, adj.NumRows)
		}
	}
}

func TestUniformChunksCoverRange(t *testing.T) {
	for _, c := range []struct{ n, nchunks int }{{0, 4}, {1, 4}, {7, 3}, {100, 7}, {5, 5}, {3, 8}} {
		chunks := uniformChunks(c.n, c.nchunks)
		next := 0
		for _, r := range chunks {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("uniformChunks(%d,%d): chunk %+v not contiguous from %d", c.n, c.nchunks, r, next)
			}
			next = r.Hi
		}
		if next != c.n {
			t.Fatalf("uniformChunks(%d,%d): chunks end at %d", c.n, c.nchunks, next)
		}
	}
}

// TestRunCtxZeroAllocSteadyState asserts the headline engine property: after
// the first run, repeated RunCtx calls on a built kernel allocate nothing —
// every in-memory kernel, CPU and simulated GPU alike, with telemetry off and
// with Options.Metrics recording every run.
func TestRunCtxZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, d = 512, 16
	adj := sparse.Random(rng, n, n, 6)
	adjT := adj.Transpose()
	x := randTensor(rng, n, d)
	dout := randTensor(rng, n, d)
	dev := cudasim.NewDevice(cudasim.Config{})

	builders := map[string]func(Options) (Kernel, error){
		"spmm": func(o Options) (Kernel, error) {
			udf := expr.CopySrc(n, d)
			return BuildSpMM(adj, udf, []*tensor.Tensor{x}, AggSum, schedule.New().Split(udf.OutAxes[0], 8), o)
		},
		"sddmm": func(o Options) (Kernel, error) {
			return BuildSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x}, nil, o)
		},
		"fusedattn": func(o Options) (Kernel, error) {
			k, _, _ := buildFused(t, adj, x, x, gatCfg, o)
			return k, nil
		},
		"fusedattn-bwd": func(o Options) (Kernel, error) {
			fwd, alpha, deriv := buildFused(t, adj, x, x, gatCfg, o)
			if _, err := fwd.Run(tensor.New(n, d)); err != nil {
				return nil, err
			}
			return BuildFusedAttentionBwd(adj, adjT, x, x, alpha, deriv, dout, o)
		},
	}
	targets := map[string]Options{
		"cpu": {Target: CPU, NumThreads: 4, GraphPartitions: 4},
		"gpu": {Target: GPU, Device: dev},
	}
	for kernel, build := range builders {
		for target, opts := range targets {
			for _, metrics := range []bool{false, true} {
				opts.Metrics = metrics
				t.Run(fmt.Sprintf("%s-%s/metrics=%v", kernel, target, metrics), func(t *testing.T) {
					k, err := build(opts)
					if err != nil {
						t.Fatal(err)
					}
					out := tensor.New(k.OutShape())
					run := func() {
						if _, err := k.Run(out); err != nil {
							t.Fatal(err)
						}
					}
					run() // the first run may finish lazy per-slot scratch
					if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
						t.Errorf("%v allocs per steady-state run, want 0", allocs)
					}
				})
			}
		}
	}
}

// TestConcurrentKernelsSharePool runs distinct kernels simultaneously on the
// shared worker pool and checks every run's output; under -race this also
// exercises the pool's handoff and the per-kernel run-state freelists.
func TestConcurrentKernelsSharePool(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, d = 256, 8
	adj := sparse.Random(rng, n, n, 5)
	x := randTensor(rng, n, d)

	udf := expr.CopySrc(n, d)
	want, err := ReferenceSpMM(adj, udf, []*tensor.Tensor{x}, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	attWant := tensor.New(adj.NNZ(), 1)
	{
		ref, err := ReferenceSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x})
		if err != nil {
			t.Fatal(err)
		}
		attWant = ref
	}

	const goroutines, reps = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			opts := Options{Target: CPU, NumThreads: 1 + gi%4, GraphPartitions: gi % 3}
			if gi%2 == 0 {
				k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, opts)
				if err != nil {
					errs <- err
					return
				}
				out := tensor.New(n, d)
				for r := 0; r < reps; r++ {
					if _, err := k.Run(out); err != nil {
						errs <- err
						return
					}
					if !out.AllClose(want, 1e-5) {
						errs <- fmt.Errorf("goroutine %d rep %d: spmm output diverged", gi, r)
						return
					}
				}
			} else {
				k, err := BuildSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x}, nil, opts)
				if err != nil {
					errs <- err
					return
				}
				out := tensor.New(adj.NNZ(), 1)
				for r := 0; r < reps; r++ {
					if _, err := k.Run(out); err != nil {
						errs <- err
						return
					}
					if !out.AllClose(attWant, 1e-5) {
						errs <- fmt.Errorf("goroutine %d rep %d: sddmm output diverged", gi, r)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

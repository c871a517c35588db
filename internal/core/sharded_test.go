package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// memShardSource serves an in-memory CSR through the ShardSource interface
// so the sharded executors can be tested against the whole-graph kernels
// without touching disk. With fresh=true every Pin extracts a new CSR
// (simulating a residency cache that evicted in between), which is how the
// planner-invalidation tests force rebuilds.
type memShardSource struct {
	a      *sparse.CSR
	shards []partition.EdgeShard
	cache  []*sparse.CSR
	fresh  bool
	pins   atomic.Int64
}

func newMemShardSource(a *sparse.CSR, targetEdges int) *memShardSource {
	shards := partition.EdgeShards(a, targetEdges)
	return &memShardSource{a: a, shards: shards, cache: make([]*sparse.CSR, len(shards))}
}

// NewMemShardSource hands the source to the external test package
// (blocked_test.go), which cannot see unexported names.
func NewMemShardSource(a *sparse.CSR, targetEdges int) ShardSource {
	return newMemShardSource(a, targetEdges)
}

func (s *memShardSource) Dims() (int, int, int64) {
	return s.a.NumRows, s.a.NumCols, int64(s.a.NNZ())
}
func (s *memShardSource) NumShards() int { return len(s.shards) }
func (s *memShardSource) ShardRows(i int) (int, int) {
	return s.shards[i].RowLo, s.shards[i].RowHi
}
func (s *memShardSource) ShardNNZ(i int) int64 { return int64(s.shards[i].NNZ()) }
func (s *memShardSource) Degree(r int) int64 {
	return int64(s.a.RowPtr[r+1] - s.a.RowPtr[r])
}
func (s *memShardSource) Pin(ctx context.Context, i int) (*sparse.CSR, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.pins.Add(1)
	if s.fresh {
		return partition.ExtractShard(s.a, s.shards[i]), func() {}, nil
	}
	if s.cache[i] == nil {
		s.cache[i] = partition.ExtractShard(s.a, s.shards[i])
	}
	return s.cache[i], func() {}, nil
}

// heavyRowGraph builds a graph whose row 1 holds most of the edges, so a
// small shard target is guaranteed to split it across shards — the case
// the partial-kernel algebra exists for. Row 0 stays isolated to exercise
// the zero-degree finalization across shard boundaries too.
func heavyRowGraph(t *testing.T, rng *rand.Rand, n, heavy int) *sparse.CSR {
	t.Helper()
	coo := &sparse.COO{NumRows: n, NumCols: n}
	seen := map[int32]bool{}
	for len(seen) < heavy {
		c := int32(rng.Intn(n))
		if seen[c] {
			continue
		}
		seen[c] = true
		coo.Row = append(coo.Row, 1)
		coo.Col = append(coo.Col, c)
	}
	for r := 2; r < n; r++ {
		coo.Row = append(coo.Row, int32(r))
		coo.Col = append(coo.Col, int32(rng.Intn(n)))
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] = rng.Float32()
	}
	return a
}

// The sharded SpMM executor must agree with the single-threaded reference
// (and therefore with the whole-graph kernel) for every aggregation, on a
// graph whose heavy row splits across shards and whose row 0 is isolated.
func TestShardedSpMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	const n, d = 40, 12
	a := heavyRowGraph(t, rng, n, 30)
	src := newMemShardSource(a, 8) // well below the heavy row's 30 edges
	if src.NumShards() < 4 {
		t.Fatalf("want >= 4 shards, got %d", src.NumShards())
	}
	x := randTensor(rng, n, d)
	e := randTensor(rng, a.NNZ(), 1)

	for _, tc := range []struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
	}{
		{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}},
		{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, a.NNZ(), d), []*tensor.Tensor{x, e}},
		// MLPMessage reads X[dst,k]: the partial kernels must offset local
		// rows by the shard's dstBase when indexing Dst-bound inputs.
		{"mlp-src-dst", expr.MLPMessage(n, d, 8), []*tensor.Tensor{x, randTensor(rng, d, 8)}},
	} {
		for _, agg := range []AggOp{AggSum, AggMax, AggMin, AggMean} {
			t.Run(tc.name+"/"+agg.String(), func(t *testing.T) {
				want, err := ReferenceSpMM(a, tc.udf, tc.inputs, agg)
				if err != nil {
					t.Fatal(err)
				}
				k, err := BuildShardedSpMM(src, tc.udf, tc.inputs, agg, nil, Options{Target: CPU}, nil)
				if err != nil {
					t.Fatal(err)
				}
				rows, cols := k.OutShape()
				out := tensor.New(rows, cols)
				if _, err := k.Run(out); err != nil {
					t.Fatal(err)
				}
				if !out.AllClose(want, 1e-4) {
					t.Fatalf("sharded SpMM diverges from reference, max diff %v", out.MaxAbsDiff(want))
				}

				// And from the whole-graph kernel, which shares schedules
				// but not the shard decomposition.
				whole := runSpMMConfig(t, a, tc.udf, tc.inputs, agg, nil, Options{Target: CPU})
				if !out.AllClose(whole, 1e-4) {
					t.Fatalf("sharded SpMM diverges from in-memory kernel, max diff %v", out.MaxAbsDiff(whole))
				}
			})
		}
	}
}

func TestShardedSDDMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n, d = 35, 10
	a := heavyRowGraph(t, rng, n, 24)
	src := newMemShardSource(a, 7)
	x := randTensor(rng, n, d)
	ev := randTensor(rng, a.NNZ(), d)

	for _, tc := range []struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
	}{
		// DotAttention and AddSrcDst read Dst-bound features, exercising
		// the dstBase offset on the SDDMM side.
		{"dot-attention", expr.DotAttention(n, d), []*tensor.Tensor{x}},
		{"add-src-dst", expr.AddSrcDst(n, d), []*tensor.Tensor{x}},
		{"copy-edge", expr.CopyEdge(a.NNZ(), d), []*tensor.Tensor{ev}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ReferenceSDDMM(a, tc.udf, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			k, err := BuildShardedSDDMM(src, tc.udf, tc.inputs, nil, Options{Target: CPU}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := k.OutShape()
			if rows != a.NNZ() {
				t.Fatalf("OutShape rows = %d, want global NNZ %d", rows, a.NNZ())
			}
			out := tensor.New(rows, cols)
			if _, err := k.Run(out); err != nil {
				t.Fatal(err)
			}
			if !out.AllClose(want, 1e-4) {
				t.Fatalf("sharded SDDMM diverges from reference, max diff %v", out.MaxAbsDiff(want))
			}
		})
	}
}

// explicitShardSource serves hand-cut shards, including zero-edge ones in
// the middle of the graph — a shape EdgeShards never emits but the on-disk
// format permits, and the executors must skip cleanly.
type explicitShardSource struct {
	memShardSource
}

func TestShardedExecutorsSkipZeroEdgeShards(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const n, d = 20, 6
	// Rows 8..12 have no edges; cut shards so the middle one is empty.
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for r := 0; r < n; r++ {
		if r >= 8 && r < 12 {
			continue
		}
		seen := map[int32]bool{}
		for len(seen) < 3 {
			c := int32(rng.Intn(n))
			if seen[c] {
				continue
			}
			seen[c] = true
			coo.Row = append(coo.Row, int32(r))
			coo.Col = append(coo.Col, c)
		}
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	edgeAt := func(r int) int { return int(a.RowPtr[r]) }
	src := &explicitShardSource{memShardSource{a: a, shards: []partition.EdgeShard{
		{RowLo: 0, RowHi: 8, EdgeLo: 0, EdgeHi: edgeAt(8)},
		{RowLo: 8, RowHi: 12, EdgeLo: edgeAt(8), EdgeHi: edgeAt(12)}, // zero edges
		{RowLo: 12, RowHi: n, EdgeLo: edgeAt(12), EdgeHi: a.NNZ()},
	}}}
	src.cache = make([]*sparse.CSR, len(src.shards))
	if src.ShardNNZ(1) != 0 {
		t.Fatal("middle shard should be empty")
	}
	x := randTensor(rng, n, d)
	udf := expr.CopySrc(n, d)

	want, err := ReferenceSpMM(a, udf, []*tensor.Tensor{x}, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	k, err := BuildShardedSpMM(src, udf, []*tensor.Tensor{x}, AggMean, nil, Options{Target: CPU}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(n, d)
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-4) {
		t.Fatalf("zero-edge shard broke SpMM, max diff %v", out.MaxAbsDiff(want))
	}

	wantE, err := ReferenceSDDMM(a, expr.AddSrcDst(n, d), []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := BuildShardedSDDMM(src, expr.AddSrcDst(n, d), []*tensor.Tensor{x}, nil, Options{Target: CPU}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outE := tensor.New(a.NNZ(), d)
	if _, err := ks.Run(outE); err != nil {
		t.Fatal(err)
	}
	if !outE.AllClose(wantE, 1e-4) {
		t.Fatalf("zero-edge shard broke SDDMM, max diff %v", outE.MaxAbsDiff(wantE))
	}
}

func TestShardedEmptyGraph(t *testing.T) {
	a := &sparse.CSR{NumRows: 6, NumCols: 6, RowPtr: make([]int32, 7)}
	src := newMemShardSource(a, 4)
	const d = 5
	x := tensor.New(6, d)
	x.Fill(3)
	k, err := BuildShardedSpMM(src, expr.CopySrc(6, d), []*tensor.Tensor{x}, AggMax, nil, Options{Target: CPU}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(6, d)
	out.Fill(99) // stale contents must be overwritten
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data() {
		if v != 0 {
			t.Fatalf("isolated vertices must aggregate to zero, got %v", v)
		}
	}
}

func TestShardedRejectsGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := sparse.Random(rng, 10, 10, 2)
	src := newMemShardSource(a, 4)
	x := randTensor(rng, 10, 3)
	if _, err := BuildShardedSpMM(src, expr.CopySrc(10, 3), []*tensor.Tensor{x}, AggSum, nil, Options{Target: GPU}, nil); err == nil {
		t.Fatal("sharded SpMM must reject GPU target")
	}
	if _, err := BuildShardedSDDMM(src, expr.DotAttention(10, 3), []*tensor.Tensor{x}, nil, Options{Target: GPU}, nil); err == nil {
		t.Fatal("sharded SDDMM must reject GPU target")
	}
}

// countingPlanner wraps the default planner and counts kernel builds.
type countingPlanner struct {
	inner  mapPlanner
	builds atomic.Int64
}

func (p *countingPlanner) Plan(shard int, adj *sparse.CSR, build func() (Kernel, error)) (Kernel, error) {
	return p.inner.Plan(shard, adj, func() (Kernel, error) {
		p.builds.Add(1)
		return build()
	})
}

// Stable shard identity across runs must reuse plans; fresh extraction on
// every Pin (an evicting residency cache) must rebuild, because the cached
// kernel's schedule aliases the evicted arrays.
func TestShardPlannerReuseAndInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := sparse.Random(rng, 30, 30, 4)
	x := randTensor(rng, 30, 6)
	udf := expr.CopySrc(30, 6)

	stable := newMemShardSource(a, 16)
	p := &countingPlanner{}
	k, err := BuildShardedSpMM(stable, udf, []*tensor.Tensor{x}, AggSum, nil, Options{Target: CPU}, p)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(30, 6)
	for run := 0; run < 3; run++ {
		if _, err := k.Run(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.builds.Load(); got != int64(stable.NumShards()) {
		t.Fatalf("stable source: %d builds over 3 runs, want one per shard (%d)", got, stable.NumShards())
	}

	churning := newMemShardSource(a, 16)
	churning.fresh = true
	p2 := &countingPlanner{}
	k2, err := BuildShardedSpMM(churning, udf, []*tensor.Tensor{x}, AggSum, nil, Options{Target: CPU}, p2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if _, err := k2.Run(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := p2.builds.Load(); got != 3*int64(churning.NumShards()) {
		t.Fatalf("churning source: %d builds over 3 runs, want one per shard per run (%d)", got, 3*churning.NumShards())
	}
}

// The partial flag's contract: a whole-graph kernel built through the
// normal constructor still prefills and finalizes (dstBase 0, partial
// false), so the sharded hooks cannot have changed single-kernel behavior.
func TestWholeGraphKernelsUnaffectedByShardHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a := graphWithIsolated(t, rng, 25, 4)
	x := randTensor(rng, 25, 8)
	for _, agg := range []AggOp{AggSum, AggMax, AggMean} {
		want, err := ReferenceSpMM(a, expr.CopySrc(25, 8), []*tensor.Tensor{x}, agg)
		if err != nil {
			t.Fatal(err)
		}
		got := runSpMMConfig(t, a, expr.CopySrc(25, 8), []*tensor.Tensor{x}, agg, nil, Options{Target: CPU})
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("agg %s: whole-graph kernel drifted, max diff %v", agg, got.MaxAbsDiff(want))
		}
	}
}

// The executor owns the retry policy: a panic in one shard's partial kernel
// fails the attempt, and the rerun — which must restart from a refilled
// output, not accumulate onto the failed attempt's partial sums — succeeds.
func TestShardedRetryRecoversAfterTransientPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const n, d = 40, 6
	a := heavyRowGraph(t, rng, n, 30)
	x := randTensor(rng, n, d)
	udf := expr.CopySrc(n, d)
	src := newMemShardSource(a, 8)
	k, err := BuildShardedSpMM(src, udf, []*tensor.Tensor{x}, AggMean, nil, Options{Target: CPU, NumThreads: 2, Retries: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := runSpMMConfig(t, a, udf, []*tensor.Tensor{x}, AggMean, nil, Options{Target: CPU})

	defer faultinject.Arm(faultinject.SiteSpMMCPUWorker,
		&faultinject.Fault{Kind: faultinject.Panic, MaxFires: 1})()
	out := tensor.New(n, d)
	stats, err := k.RunCtx(context.Background(), out)
	if err != nil {
		t.Fatalf("RunCtx with retry: %v", err)
	}
	if stats.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", stats.Retries)
	}
	if !out.AllClose(whole, 1e-4) {
		t.Fatalf("retried sharded run diverges from in-memory kernel, max diff %v", out.MaxAbsDiff(whole))
	}
}

// Options.Metrics stays with the executor: one sharded run is one kernel
// run in the template's metric set, whatever the shard count, and it
// accounts every edge and aggregated row once.
func TestShardedRunRecordsMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const n, d = 30, 6
	a := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, d)
	src := newMemShardSource(a, 16)
	if src.NumShards() < 2 {
		t.Fatalf("want >= 2 shards, got %d", src.NumShards())
	}
	k, err := BuildShardedSpMM(src, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, Options{Target: CPU, Metrics: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := []string{
		`featgraph_kernel_runs_total{kernel="spmm",target="cpu"}`,
		`featgraph_kernel_run_seconds_count{kernel="spmm"}`,
		`featgraph_kernel_edges_processed_total{kernel="spmm"}`,
		`featgraph_kernel_rows_processed_total{kernel="spmm"}`,
	}
	before := make([]float64, len(series))
	for i, name := range series {
		before[i], _ = telemetry.Value(name)
	}
	if _, err := k.Run(tensor.New(n, d)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1, float64(a.NNZ()), n} {
		if got, _ := telemetry.Value(series[i]); got-before[i] != want {
			t.Errorf("%s grew by %v over one sharded run, want %v", series[i], got-before[i], want)
		}
	}
}

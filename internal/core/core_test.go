package core

import (
	"math/rand"
	"testing"

	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/schedule"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillUniform(rng, -1, 1)
	return t
}

// graphWithIsolated returns a random square graph that definitely contains
// at least one vertex with no in-edges, to exercise finalizeAgg.
func graphWithIsolated(t *testing.T, rng *rand.Rand, n, deg int) *sparse.CSR {
	t.Helper()
	coo := &sparse.COO{NumRows: n, NumCols: n}
	for r := 1; r < n; r++ { // row 0 stays empty
		seen := map[int32]bool{}
		for len(seen) < deg {
			c := int32(rng.Intn(n))
			if seen[c] {
				continue
			}
			seen[c] = true
			coo.Row = append(coo.Row, int32(r))
			coo.Col = append(coo.Col, c)
		}
	}
	csr, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

func TestAggOpStringsAndIdentity(t *testing.T) {
	if AggSum.String() != "sum" || AggMax.String() != "max" || AggMin.String() != "min" || AggMean.String() != "mean" {
		t.Fatal("agg op strings wrong")
	}
	if AggSum.identity() != 0 || AggMean.identity() != 0 {
		t.Fatal("sum/mean identity should be 0")
	}
	if AggMax.identity() > -1e30 || AggMin.identity() < 1e30 {
		t.Fatal("max/min identities should be ∓inf")
	}
	if CPU.String() != "cpu" || GPU.String() != "gpu" {
		t.Fatal("target strings wrong")
	}
}

func TestSpMMCopySrcMatchesDenseMatMul(t *testing.T) {
	// Vanilla SpMM: copy-src message + sum aggregation must equal A × X
	// computed densely (A binary).
	rng := rand.New(rand.NewSource(1))
	const n, d = 30, 16
	adj := sparse.Random(rng, n, n, 5)
	x := randTensor(rng, n, d)

	k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, Options{Target: CPU})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(n, d)
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}

	dense := tensor.New(n, n)
	for r := 0; r < n; r++ {
		for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
			dense.Set(1, r, int(adj.ColIdx[p]))
		}
	}
	want := tensor.MatMul(tensor.New(n, d), dense, x)
	if !out.AllClose(want, 1e-4) {
		t.Fatalf("SpMM != A×X, max diff %v", out.MaxAbsDiff(want))
	}
}

// runSpMMConfig builds and runs one configuration, returning the output.
func runSpMMConfig(t *testing.T, adj *sparse.CSR, udf *expr.UDF, inputs []*tensor.Tensor, agg AggOp, fds *schedule.FDS, opts Options) *tensor.Tensor {
	t.Helper()
	k, err := BuildSpMM(adj, udf, inputs, agg, fds, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := k.OutShape()
	out := tensor.New(rows, cols)
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpMMAllSchedulesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, d = 40, 24
	adj := graphWithIsolated(t, rng, n, 6)
	x := randTensor(rng, n, d)
	e1 := randTensor(rng, adj.NNZ(), 1)
	ev := randTensor(rng, adj.NNZ(), d)
	w := randTensor(rng, 8, d)
	x8 := randTensor(rng, n, 8)

	type workload struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
	}
	workloads := []workload{
		{"copy-src", expr.CopySrc(n, d), []*tensor.Tensor{x}},
		{"copy-dst", expr.CopyDst(n, d), []*tensor.Tensor{x}},
		{"copy-edge", expr.CopyEdge(adj.NNZ(), d), []*tensor.Tensor{ev}},
		{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, adj.NNZ(), d), []*tensor.Tensor{x, e1}},
		{"src-mul-edge-vec", expr.SrcMulEdge(n, adj.NNZ(), d), []*tensor.Tensor{x, ev}},
		{"add-src-dst", expr.AddSrcDst(n, d), []*tensor.Tensor{x}},
		{"mlp", expr.MLPMessage(n, 8, d), []*tensor.Tensor{x8, w}},
	}
	aggs := []AggOp{AggSum, AggMax, AggMin, AggMean}
	for _, wl := range workloads {
		for _, agg := range aggs {
			want, err := ReferenceSpMM(adj, wl.udf, wl.inputs, agg)
			if err != nil {
				t.Fatal(err)
			}
			configs := []struct {
				name string
				fds  func() *schedule.FDS
				opts Options
			}{
				{"plain", func() *schedule.FDS { return nil }, Options{Target: CPU}},
				{"tiled", func() *schedule.FDS { return schedule.New().Split(wl.udf.OutAxes[0], 8) }, Options{Target: CPU}},
				{"partitioned", func() *schedule.FDS { return nil }, Options{Target: CPU, GraphPartitions: 4}},
				{"tiled+partitioned+threads", func() *schedule.FDS { return schedule.New().Split(wl.udf.OutAxes[0], 8) },
					Options{Target: CPU, GraphPartitions: 4, NumThreads: 4}},
			}
			for _, cfg := range configs {
				got := runSpMMConfig(t, adj, wl.udf, wl.inputs, agg, cfg.fds(), cfg.opts)
				if !got.AllClose(want, 1e-3) {
					t.Errorf("%s/%s/%s: max diff %v", wl.name, agg, cfg.name, got.MaxAbsDiff(want))
				}
			}
		}
	}
}

func TestSpMMGPUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d = 40, 24
	adj := graphWithIsolated(t, rng, n, 6)
	x := randTensor(rng, n, d)
	e1 := randTensor(rng, adj.NNZ(), 1)
	w := randTensor(rng, 8, d)
	x8 := randTensor(rng, n, 8)
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 4})

	type workload struct {
		name   string
		udf    *expr.UDF
		inputs []*tensor.Tensor
		agg    AggOp
	}
	workloads := []workload{
		{"copy-src-sum", expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum},
		{"copy-src-max", expr.CopySrc(n, d), []*tensor.Tensor{x}, AggMax},
		{"src-mul-edge-scalar", expr.SrcMulEdgeScalar(n, adj.NNZ(), d), []*tensor.Tensor{x, e1}, AggSum},
		{"mlp-sum", expr.MLPMessage(n, 8, d), []*tensor.Tensor{x8, w}, AggSum},
		{"mlp-mean", expr.MLPMessage(n, 8, d), []*tensor.Tensor{x8, w}, AggMean},
	}
	for _, wl := range workloads {
		want, err := ReferenceSpMM(adj, wl.udf, wl.inputs, wl.agg)
		if err != nil {
			t.Fatal(err)
		}
		fds := schedule.New().Bind(wl.udf.OutAxes[0], schedule.ThreadX)
		for _, hybrid := range []int32{0, 4} {
			got := runSpMMConfig(t, adj, wl.udf, wl.inputs, wl.agg, fds,
				Options{Target: GPU, Device: dev, HybridThreshold: hybrid})
			if !got.AllClose(want, 1e-3) {
				t.Errorf("%s hybrid=%d: max diff %v", wl.name, hybrid, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestSpMMGPUReportsCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, d = 30, 16
	adj := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, d)
	k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum,
		schedule.New().Bind(expr.CopySrc(n, d).OutAxes[0], schedule.ThreadX),
		Options{Target: GPU})
	if err != nil {
		// The FDS axis belongs to a different UDF instance; this must fail.
		return
	}
	out := tensor.New(n, d)
	stats, err := k.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimCycles == 0 {
		t.Fatal("GPU run should report simulated cycles")
	}
}

func TestSpMMFDSFromDifferentUDFRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, d = 10, 4
	adj := sparse.Random(rng, n, n, 2)
	x := randTensor(rng, n, d)
	udf := expr.CopySrc(n, d)
	other := expr.CopySrc(n, d)
	fds := schedule.New().Split(other.OutAxes[0], 2)
	// other's axis has the same slot as udf's, so pointer identity must
	// distinguish them.
	if _, err := BuildSpMM(adj, udf, []*tensor.Tensor{x}, AggSum, fds, Options{Target: CPU}); err == nil {
		t.Fatal("FDS referencing a foreign UDF's axis should be rejected")
	}
}

func TestSpMMValidatesBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, d = 10, 4
	adj := sparse.Random(rng, n, n, 2)
	// X has wrong vertex count.
	xBad := randTensor(rng, n+1, d)
	if _, err := BuildSpMM(adj, expr.CopySrc(n+1, d), []*tensor.Tensor{xBad}, AggSum, nil, Options{Target: CPU}); err == nil {
		t.Fatal("src-indexed tensor with wrong vertex count should be rejected")
	}
	// Edge tensor too small.
	eBad := randTensor(rng, adj.NNZ()-1, d)
	if _, err := BuildSpMM(adj, expr.CopyEdge(adj.NNZ()-1, d), []*tensor.Tensor{eBad}, AggSum, nil, Options{Target: CPU}); err == nil {
		t.Fatal("undersized edge tensor should be rejected")
	}
}

func TestSpMMIsolatedVerticesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, d = 20, 8
	adj := graphWithIsolated(t, rng, n, 3)
	x := randTensor(rng, n, d)
	for _, agg := range []AggOp{AggSum, AggMax, AggMin, AggMean} {
		out := runSpMMConfig(t, adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, agg, nil, Options{Target: CPU})
		for f := 0; f < d; f++ {
			if out.At(0, f) != 0 {
				t.Fatalf("agg %v: isolated vertex row not zero: %v", agg, out.Row(0))
			}
		}
	}
}

func TestSpMMPatternReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, d = 10, 4
	adj := sparse.Random(rng, n, n, 2)
	x := randTensor(rng, n, d)
	k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, Options{Target: CPU})
	if err != nil {
		t.Fatal(err)
	}
	if k.Pattern() != "copy-src" {
		t.Fatalf("Pattern = %q", k.Pattern())
	}
}

func TestSDDMMDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 40, 24
	adj := sparse.Random(rng, n, n, 6)
	x := randTensor(rng, n, d)
	udf := expr.DotAttention(n, d)
	want, err := ReferenceSDDMM(adj, udf, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	redAxis := findReduceAxis(udf.Body)
	configs := []struct {
		name string
		fds  *schedule.FDS
		opts Options
	}{
		{"plain", nil, Options{Target: CPU}},
		{"hilbert", nil, Options{Target: CPU, Hilbert: true}},
		{"reduce-split", schedule.New().Split(redAxis, 8), Options{Target: CPU}},
		{"threads", nil, Options{Target: CPU, NumThreads: 4}},
		{"hilbert+split+threads", schedule.New().Split(redAxis, 8), Options{Target: CPU, Hilbert: true, NumThreads: 4}},
	}
	for _, cfg := range configs {
		k, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x}, cfg.fds, cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(adj.NNZ(), 1)
		if _, err := k.Run(out); err != nil {
			t.Fatal(err)
		}
		if !out.AllClose(want, 1e-3) {
			t.Errorf("%s: max diff %v", cfg.name, out.MaxAbsDiff(want))
		}
	}
}

func TestSDDMMGenericMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, h, d = 30, 4, 16
	adj := sparse.Random(rng, n, n, 5)
	x := randTensor(rng, n, h, d)
	udf := expr.MultiHeadDot(n, h, d)
	want, err := ReferenceSDDMM(adj, udf, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Target: CPU},
		{Target: CPU, Hilbert: true, NumThreads: 3},
	} {
		k, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x}, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(adj.NNZ(), h)
		if _, err := k.Run(out); err != nil {
			t.Fatal(err)
		}
		if !out.AllClose(want, 1e-3) {
			t.Errorf("opts %+v: max diff %v", opts, out.MaxAbsDiff(want))
		}
	}
}

func TestSDDMMGPUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, d = 40, 32
	adj := sparse.Random(rng, n, n, 6)
	x := randTensor(rng, n, d)
	udf := expr.DotAttention(n, d)
	want, err := ReferenceSDDMM(adj, udf, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 4})
	redAxis := findReduceAxis(udf.Body)

	// With tree reduction.
	fds := schedule.New().TreeReduce(redAxis, schedule.ThreadX)
	kTree, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x}, fds, Options{Target: GPU, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	outTree := tensor.New(adj.NNZ(), 1)
	statsTree, err := kTree.Run(outTree)
	if err != nil {
		t.Fatal(err)
	}
	if !outTree.AllClose(want, 1e-3) {
		t.Fatalf("tree-reduce: max diff %v", outTree.MaxAbsDiff(want))
	}

	// Without tree reduction (naive one-thread-per-edge dot).
	kNaive, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x}, nil, Options{Target: GPU, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	outNaive := tensor.New(adj.NNZ(), 1)
	statsNaive, err := kNaive.Run(outNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !outNaive.AllClose(want, 1e-3) {
		t.Fatalf("naive: max diff %v", outNaive.MaxAbsDiff(want))
	}
	// Tree reduction must be faster in simulated cycles (Figure 12).
	if statsTree.SimCycles >= statsNaive.SimCycles {
		t.Fatalf("tree reduction cycles %d not better than naive %d", statsTree.SimCycles, statsNaive.SimCycles)
	}
}

func TestSDDMMGPUGenericMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, h, d = 20, 4, 8
	adj := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, h, d)
	udf := expr.MultiHeadDot(n, h, d)
	want, err := ReferenceSDDMM(adj, udf, []*tensor.Tensor{x})
	if err != nil {
		t.Fatal(err)
	}
	fds := schedule.New().Bind(udf.OutAxes[0], schedule.ThreadX)
	k, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x}, fds, Options{Target: GPU, Device: cudasim.NewDevice(cudasim.Config{NumSMs: 2})})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(adj.NNZ(), h)
	stats, err := k.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-3) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
	if stats.SimCycles == 0 {
		t.Fatal("GPU run should charge cycles")
	}
}

func TestSpMMGradientPatternsRoundTrip(t *testing.T) {
	// The paper notes the gradient of SpMM w.r.t. A follows the SDDMM
	// pattern and vice versa (§II-A). Verify the algebra with the two
	// kernels: d(A×X)/dA[u→v] = dH[v]·X[u], computable as SDDMM(dH, X)
	// on the transposed pairing.
	rng := rand.New(rand.NewSource(15))
	const n, d = 15, 6
	adj := sparse.Random(rng, n, n, 3)
	x := randTensor(rng, n, d)
	dh := randTensor(rng, n, d)

	// SDDMM with X read via Src and dH via Dst gives exactly dH[v]·X[u].
	b := expr.NewBuilder()
	xv := b.Placeholder("X", n, d)
	gv := b.Placeholder("dH", n, d)
	i := b.OutAxis("i", 1)
	kk := b.ReduceAxis("k", d)
	udf := b.UDF(expr.Sum(kk, expr.Mul(xv.At(expr.Src, kk), gv.At(expr.Dst, kk))), i)

	k2, err := BuildSDDMM(adj, udf, []*tensor.Tensor{x, dh}, nil, Options{Target: CPU})
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(adj.NNZ(), 1)
	if _, err := k2.Run(grad); err != nil {
		t.Fatal(err)
	}
	// Check a few entries directly.
	for r := 0; r < n; r++ {
		for p := adj.RowPtr[r]; p < adj.RowPtr[r+1]; p++ {
			u := int(adj.ColIdx[p])
			want := tensor.Dot(x.Row(u), dh.Row(r))
			got := grad.At(int(adj.EID[p]), 0)
			if diff := float64(got - want); diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("grad[%d→%d] = %v, want %v", u, r, got, want)
			}
		}
	}
}

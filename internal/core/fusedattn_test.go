package core

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"featgraph/internal/cudasim"
	"featgraph/internal/graphgen"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// refFusedAttn is the float64 reference for the fused forward: per
// destination row, score = Scale·LeakyReLU(x_src·y_dst), softmax over the
// row's in-edges, weighted sum of source features.
func refFusedAttn(adj *sparse.CSR, x, y *tensor.Tensor, cfg FusedAttnConfig) *tensor.Tensor {
	d := x.Dim(1)
	scale := float64(cfg.Scale)
	if scale == 0 {
		scale = 1
	}
	slope := float64(cfg.NegSlope)
	out := tensor.New(adj.NumRows, d)
	for v := 0; v < adj.NumRows; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		if lo == hi {
			continue
		}
		scores := make([]float64, hi-lo)
		maxv := math.Inf(-1)
		for j := range scores {
			u := int(adj.ColIdx[lo+j])
			var dot float64
			for f := 0; f < d; f++ {
				dot += float64(x.At(u, f)) * float64(y.At(v, f))
			}
			s := dot
			if dot <= 0 {
				s *= slope
			}
			s *= scale
			scores[j] = s
			maxv = math.Max(maxv, s)
		}
		var sum float64
		for j := range scores {
			scores[j] = math.Exp(scores[j] - maxv)
			sum += scores[j]
		}
		for j := range scores {
			a := scores[j] / sum
			u := int(adj.ColIdx[lo+j])
			for f := 0; f < d; f++ {
				out.Set(out.At(v, f)+float32(a*float64(x.At(u, f))), v, f)
			}
		}
	}
	return out
}

// refFusedAttnBwd is the float64 analytic reference for the fused backward.
func refFusedAttnBwd(adj *sparse.CSR, x, y, dout *tensor.Tensor, cfg FusedAttnConfig) (dx, dy *tensor.Tensor) {
	d := x.Dim(1)
	scale := float64(cfg.Scale)
	if scale == 0 {
		scale = 1
	}
	slope := float64(cfg.NegSlope)
	dx = tensor.New(adj.NumCols, d)
	dy = tensor.New(adj.NumRows, d)
	for v := 0; v < adj.NumRows; v++ {
		lo, hi := int(adj.RowPtr[v]), int(adj.RowPtr[v+1])
		deg := hi - lo
		if deg == 0 {
			continue
		}
		alpha := make([]float64, deg)
		drv := make([]float64, deg)
		maxv := math.Inf(-1)
		for j := range alpha {
			u := int(adj.ColIdx[lo+j])
			var dot float64
			for f := 0; f < d; f++ {
				dot += float64(x.At(u, f)) * float64(y.At(v, f))
			}
			s, dr := dot, scale
			if dot <= 0 {
				s *= slope
				dr *= slope
			}
			s *= scale
			alpha[j] = s
			drv[j] = dr
			maxv = math.Max(maxv, s)
		}
		var sum float64
		for j := range alpha {
			alpha[j] = math.Exp(alpha[j] - maxv)
			sum += alpha[j]
		}
		dA := make([]float64, deg)
		var rowDot float64
		for j := range alpha {
			alpha[j] /= sum
			u := int(adj.ColIdx[lo+j])
			var s float64
			for f := 0; f < d; f++ {
				s += float64(x.At(u, f)) * float64(dout.At(v, f))
			}
			dA[j] = s
			rowDot += alpha[j] * s
		}
		for j := range alpha {
			u := int(adj.ColIdx[lo+j])
			dE := alpha[j] * (dA[j] - rowDot) * drv[j]
			for f := 0; f < d; f++ {
				dy.Set(dy.At(v, f)+float32(dE*float64(x.At(u, f))), v, f)
				dx.Set(dx.At(u, f)+float32(alpha[j]*float64(dout.At(v, f))+dE*float64(y.At(v, f))), u, f)
			}
		}
	}
	return dx, dy
}

// buildFused builds a forward kernel plus its edge buffers.
func buildFused(t *testing.T, adj *sparse.CSR, x, y *tensor.Tensor, cfg FusedAttnConfig, opts Options) (*FusedAttnKernel, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	m := max(adj.NNZ(), 1)
	alpha := tensor.New(m, 1)
	deriv := tensor.New(m, 1)
	k, err := BuildFusedAttention(adj, x, y, alpha, deriv, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k, alpha, deriv
}

var gatCfg = FusedAttnConfig{NegSlope: 0.2, Scale: 0.25}

func TestFusedAttentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n, d = 48, 24
	adj := graphWithIsolated(t, rng, n, 6)
	x := randTensor(rng, n, d)
	y := randTensor(rng, n, d)
	want := refFusedAttn(adj, x, y, gatCfg)

	configs := []struct {
		name string
		opts Options
	}{
		{"engine-1t", Options{Target: CPU}},
		{"engine-4t", Options{Target: CPU, NumThreads: 4}},
	}
	for _, cfg := range configs {
		k, alpha, _ := buildFused(t, adj, x, y, gatCfg, cfg.opts)
		out := tensor.New(n, d)
		stats, err := k.Run(out)
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllClose(want, 1e-4) {
			t.Errorf("%s: max diff %v", cfg.name, out.MaxAbsDiff(want))
		}
		if stats.EdgesProcessed != uint64(adj.NNZ()) {
			t.Errorf("%s: EdgesProcessed = %d, want %d", cfg.name, stats.EdgesProcessed, adj.NNZ())
		}
		// The softmax probabilities must sum to 1 over each non-empty row.
		for v := 0; v < n; v++ {
			lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
			if lo == hi {
				continue
			}
			var sum float64
			for p := lo; p < hi; p++ {
				sum += float64(alpha.At(int(adj.EID[p]), 0))
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("%s: row %d alpha sums to %v", cfg.name, v, sum)
			}
		}
	}
}

func TestFusedAttentionExtremeScoresStayFinite(t *testing.T) {
	// Scores large enough that a non-streaming softmax (exp before max
	// subtraction) would overflow to +Inf. The streaming recurrence never
	// exponentiates a positive argument, so the output must stay finite.
	rng := rand.New(rand.NewSource(41))
	const n = 16
	adj := sparse.Random(rng, n, n, 4)
	for _, d := range []int{8, 64, 65} {
		x := randTensor(rng, n, d)
		y := randTensor(rng, n, d)
		for i, v := range x.Data() {
			x.Data()[i] = v * 200 // dots on the order of ±1e5
		}
		for i, v := range y.Data() {
			y.Data()[i] = v * 200
		}
		k, _, _ := buildFused(t, adj, x, y, gatCfg, Options{Target: CPU, CheckNumerics: true})
		out := tensor.New(n, d)
		if _, err := k.Run(out); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		want := refFusedAttn(adj, x, y, gatCfg)
		if !out.AllClose(want, 1e-2) {
			t.Fatalf("d=%d: max diff %v", d, out.MaxAbsDiff(want))
		}
	}
}

// A NaN in one source row must reach the output of both directions, so that
// CheckNumerics fails each run with a *NumericError instead of returning
// finite garbage. The NaN sits in the last feature: the scalar tail at d=65,
// the last 8-wide block otherwise.
func TestFusedAttentionNaNSourceFailsCheckNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 16
	adj := sparse.Random(rng, n, n, 4)
	adjT := adj.Transpose()
	u := int(adj.ColIdx[0]) // a source with at least one out-edge
	for _, d := range []int{8, 64, 65} {
		x, y, dout := randTensor(rng, n, d), randTensor(rng, n, d), randTensor(rng, n, d)
		opts := Options{Target: CPU, NumThreads: 2, CheckNumerics: true}
		fwd, alpha, deriv := buildFused(t, adj, x, y, gatCfg, opts)
		if _, err := fwd.Run(tensor.New(n, d)); err != nil { // finite alpha/deriv for the backward
			t.Fatalf("d=%d: clean forward: %v", d, err)
		}
		bwd, err := BuildFusedAttentionBwd(adj, adjT, x, y, alpha, deriv, dout, opts)
		if err != nil {
			t.Fatal(err)
		}

		x.Set(float32(math.NaN()), u, d-1)
		var ne *NumericError
		if _, err := bwd.Run(tensor.New(2*n, d)); !errors.As(err, &ne) {
			t.Errorf("d=%d: backward returned %v, want *NumericError", d, err)
		}
		if _, err := fwd.Run(tensor.New(n, d)); !errors.As(err, &ne) {
			t.Errorf("d=%d: forward returned %v, want *NumericError", d, err)
		}
	}
}

func TestFusedAttentionEmptyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, d = 8, 4
	adj := &sparse.CSR{NumRows: n, NumCols: n, RowPtr: make([]int32, n+1)}
	x := randTensor(rng, n, d)
	k, _, _ := buildFused(t, adj, x, x, gatCfg, Options{Target: CPU})
	out := tensor.New(n, d)
	out.FillUniform(rng, -1, 1) // must be overwritten with zeros
	if _, err := k.Run(out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != 0 {
			t.Fatalf("out[%d] = %v on empty graph", i, v)
		}
	}
}

func TestFusedAttentionGPUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, d = 40, 16
	adj := graphWithIsolated(t, rng, n, 5)
	x := randTensor(rng, n, d)
	y := randTensor(rng, n, d)
	want := refFusedAttn(adj, x, y, gatCfg)
	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 4})
	k, _, _ := buildFused(t, adj, x, y, gatCfg, Options{Target: GPU, Device: dev})
	out := tensor.New(n, d)
	stats, err := k.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-4) {
		t.Fatalf("max diff %v", out.MaxAbsDiff(want))
	}
	if stats.SimCycles == 0 {
		t.Fatal("GPU run should charge simulated cycles")
	}
}

func TestFusedAttentionBwdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n, d = 40, 12
	adj := graphWithIsolated(t, rng, n, 5)
	adjT := adj.Transpose()
	x := randTensor(rng, n, d)
	y := randTensor(rng, n, d)
	dout := randTensor(rng, n, d)
	wantDX, wantDY := refFusedAttnBwd(adj, x, y, dout, gatCfg)

	dev := cudasim.NewDevice(cudasim.Config{NumSMs: 4})
	configs := []struct {
		name string
		opts Options
	}{
		{"engine-1t", Options{Target: CPU}},
		{"engine-4t", Options{Target: CPU, NumThreads: 4}},
		{"gpu", Options{Target: GPU, Device: dev}},
	}
	for _, cfg := range configs {
		// The forward fills alpha/deriv; the backward consumes them.
		fwd, alpha, deriv := buildFused(t, adj, x, y, gatCfg, cfg.opts)
		if _, err := fwd.Run(tensor.New(n, d)); err != nil {
			t.Fatal(err)
		}
		bwd, err := BuildFusedAttentionBwd(adj, adjT, x, y, alpha, deriv, dout, cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := bwd.OutShape()
		if rows != 2*n || cols != d {
			t.Fatalf("%s: OutShape = %d,%d", cfg.name, rows, cols)
		}
		grad := tensor.New(rows, cols)
		if _, err := bwd.Run(grad); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for f := 0; f < d; f++ {
				if diff := math.Abs(float64(grad.At(u, f) - wantDX.At(u, f))); diff > 1e-3 {
					t.Fatalf("%s: dX[%d,%d] = %v, want %v", cfg.name, u, f, grad.At(u, f), wantDX.At(u, f))
				}
				if diff := math.Abs(float64(grad.At(n+u, f) - wantDY.At(u, f))); diff > 1e-3 {
					t.Fatalf("%s: dY[%d,%d] = %v, want %v", cfg.name, u, f, grad.At(n+u, f), wantDY.At(u, f))
				}
			}
		}
	}
}

func TestFusedAttentionBwdFiniteDifference(t *testing.T) {
	// Central differences through the fused forward: L = Σ dout ⊙ out.
	rng := rand.New(rand.NewSource(45))
	const n, d = 10, 4
	adj := sparse.Random(rng, n, n, 3)
	adjT := adj.Transpose()
	x := randTensor(rng, n, d)
	y := randTensor(rng, n, d)
	dout := randTensor(rng, n, d)

	fwd, alpha, deriv := buildFused(t, adj, x, y, gatCfg, Options{Target: CPU})
	if _, err := fwd.Run(tensor.New(n, d)); err != nil {
		t.Fatal(err)
	}
	bwd, err := BuildFusedAttentionBwd(adj, adjT, x, y, alpha, deriv, dout, Options{Target: CPU})
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(2*n, d)
	if _, err := bwd.Run(grad); err != nil {
		t.Fatal(err)
	}

	loss := func() float64 {
		out := refFusedAttn(adj, x, y, gatCfg)
		var l float64
		for i, v := range out.Data() {
			l += float64(dout.Data()[i]) * float64(v)
		}
		return l
	}
	const eps = 1e-3
	check := func(param *tensor.Tensor, base int) {
		for _, idx := range []int{0, 7, param.Len() - 1} {
			orig := param.Data()[idx]
			param.Data()[idx] = orig + eps
			lp := loss()
			param.Data()[idx] = orig - eps
			lm := loss()
			param.Data()[idx] = orig
			fd := (lp - lm) / (2 * eps)
			got := float64(grad.Data()[base*d+idx])
			if math.Abs(fd-got) > 1e-2*math.Max(1, math.Abs(fd)) {
				t.Fatalf("param base %d idx %d: analytic %v, finite-diff %v", base, idx, got, fd)
			}
		}
	}
	check(x, 0)
	check(y, n)
}

func TestFusedAttentionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n, d = 10, 4
	adj := sparse.Random(rng, n, n, 2)
	adjT := adj.Transpose()
	x := randTensor(rng, n, d)
	m := adj.NNZ()
	alpha, deriv := tensor.New(m, 1), tensor.New(m, 1)
	dout := randTensor(rng, n, d)

	if _, err := BuildFusedAttention(adj, randTensor(rng, n+1, d), x, alpha, deriv, gatCfg, Options{}); err == nil {
		t.Fatal("wrong x rows should be rejected")
	}
	if _, err := BuildFusedAttention(adj, x, randTensor(rng, n, d+1), alpha, deriv, gatCfg, Options{}); err == nil {
		t.Fatal("mismatched y width should be rejected")
	}
	if _, err := BuildFusedAttention(adj, x, x, tensor.New(m-1, 1), deriv, gatCfg, Options{}); err == nil {
		t.Fatal("undersized alpha buffer should be rejected")
	}
	if _, err := BuildFusedAttentionBwd(adj, adj, x, x, alpha, deriv, dout, Options{}); err == nil && adj.NumRows != adj.NumCols {
		t.Fatal("non-transpose should be rejected")
	}
	if _, err := BuildFusedAttentionBwd(adj, adjT, x, x, alpha, deriv, randTensor(rng, n+1, d), Options{}); err == nil {
		t.Fatal("wrong dout shape should be rejected")
	}

	k, _, _ := buildFused(t, adj, x, x, gatCfg, Options{})
	if _, err := k.Run(tensor.New(n, d+1)); err == nil {
		t.Fatal("wrong output shape should be rejected")
	}
	if k.Pattern() != "fusedattn" {
		t.Fatalf("Pattern = %q", k.Pattern())
	}
	if k.Describe() == "" {
		t.Fatal("Describe should not be empty")
	}
}

// fusedBench is the fused pair at kernels_inmem's shape: Skewed(24000, 130,
// 1.4), d=64, two threads. Built once and shared by both benchmarks.
var fusedBench struct {
	once      sync.Once
	fwd       *FusedAttnKernel
	bwd       *FusedAttnBwdKernel
	out, grad *tensor.Tensor
}

func fusedBenchKernels(b *testing.B) {
	b.Helper()
	fb := &fusedBench
	fb.once.Do(func() {
		const n, deg, d = 24000, 130, 64
		rng := rand.New(rand.NewSource(1))
		adj := graphgen.Skewed(rng, n, deg, 1.4)
		x, dout := randTensor(rng, n, d), randTensor(rng, n, d)
		alpha, deriv := tensor.New(adj.NNZ(), 1), tensor.New(adj.NNZ(), 1)
		opts := Options{Target: CPU, NumThreads: 2}
		cfg := FusedAttnConfig{NegSlope: 0.2, Scale: 0.125}
		var err error
		if fb.fwd, err = BuildFusedAttention(adj, x, x, alpha, deriv, cfg, opts); err != nil {
			b.Fatal(err)
		}
		if fb.bwd, err = BuildFusedAttentionBwd(adj, adj.Transpose(), x, x, alpha, deriv, dout, opts); err != nil {
			b.Fatal(err)
		}
		fb.out, fb.grad = tensor.New(n, d), tensor.New(2*n, d)
		if _, err := fb.fwd.Run(fb.out); err != nil { // fills alpha/deriv for the backward
			b.Fatal(err)
		}
	})
	if fb.fwd == nil {
		b.Fatal("fused benchmark set-up failed")
	}
}

func BenchmarkFusedAttention(b *testing.B) {
	fusedBenchKernels(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fusedBench.fwd.Run(fusedBench.out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedAttentionBwd(b *testing.B) {
	fusedBenchKernels(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fusedBench.bwd.Run(fusedBench.grad); err != nil {
			b.Fatal(err)
		}
	}
}

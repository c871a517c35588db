package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// buildTestSpMM builds a small copy-src/sum kernel for resilience tests.
func buildTestSpMM(t *testing.T, seed int64, opts Options) (*SpMMKernel, *tensor.Tensor, *sparse.CSR, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d = 32, 8
	adj := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, d)
	k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k, tensor.New(n, d), adj, []*tensor.Tensor{x}
}

// waitGoroutines polls until the goroutine count drops back to at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), want)
}

func TestSpMMCancelDuringStalledWorkers(t *testing.T) {
	// Workers stall far longer than the context deadline; cancellation must
	// release them (the stall selects on the run's done channel) and RunCtx
	// must return the context error without leaking goroutines.
	defer faultinject.Arm(faultinject.SiteSpMMCPUWorker,
		&faultinject.Fault{Kind: faultinject.Stall, Delay: 10 * time.Second})()
	k, out, _, _ := buildTestSpMM(t, 22, Options{Target: CPU, NumThreads: 4, GraphPartitions: 2})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := k.RunCtx(ctx, out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancellation took %v; stalled workers not released", took)
	}
	waitGoroutines(t, before)
}

func TestSpMMGPUCancelDuringStalledBlocks(t *testing.T) {
	// Same for the simulated device: stalled blocks observe ctx.Done through
	// the launch, and cancellation must NOT trigger the CPU fallback.
	defer faultinject.Arm(faultinject.SiteCudasimBlock,
		&faultinject.Fault{Kind: faultinject.Stall, Delay: 10 * time.Second})()
	k, out, _, _ := buildTestSpMM(t, 23, Options{Target: GPU})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	stats, err := k.RunCtx(ctx, out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if stats.Fallback {
		t.Fatal("cancellation must not trigger CPU fallback")
	}
	waitGoroutines(t, before)
}

func TestSpMMGPUBuildDegradesToCPU(t *testing.T) {
	// A hybrid-partitioned schedule whose feature tile cannot fit in shared
	// memory fails the device build; the kernel degrades to the CPU path at
	// build time and every run reports the standing fallback.
	rng := rand.New(rand.NewSource(29))
	const n, d = 32, 8
	adj := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, d)
	dev := cudasim.NewDevice(cudasim.Config{SharedMemPerBlock: 4}) // one float32
	opts := Options{Target: GPU, Device: dev, HybridThreshold: 1}

	k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, opts)
	if err != nil {
		t.Fatalf("build should degrade, not fail: %v", err)
	}
	out := tensor.New(n, d)
	stats, err := k.Run(out)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback || !strings.Contains(stats.FallbackReason, "shared memory") {
		t.Fatalf("want shared-memory fallback recorded, got %+v", stats)
	}
	want, err := ReferenceSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(want, 1e-4) {
		t.Fatalf("degraded output wrong, max diff %v", out.MaxAbsDiff(want))
	}

	opts.NoFallback = true
	if _, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggSum, nil, opts); err == nil {
		t.Fatal("NoFallback build should surface the device error")
	}
}

func TestCheckNumericsCleanRunPasses(t *testing.T) {
	k, out, _, _ := buildTestSpMM(t, 32, Options{Target: CPU, CheckNumerics: true})
	if _, err := k.Run(out); err != nil {
		t.Fatalf("clean run failed numerics check: %v", err)
	}
}

func TestSpMMZeroDegreeAggMeanFinite(t *testing.T) {
	// Regression: mean over an empty neighborhood must be 0, not 0/0 = NaN,
	// on both targets — verified by running under CheckNumerics.
	rng := rand.New(rand.NewSource(33))
	const n, d = 24, 8
	adj := graphWithIsolated(t, rng, n, 3)
	x := randTensor(rng, n, d)
	for _, target := range []Target{CPU, GPU} {
		k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, AggMean, nil,
			Options{Target: target, CheckNumerics: true})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(n, d)
		if _, err := k.Run(out); err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		for f := 0; f < d; f++ {
			if out.At(0, f) != 0 {
				t.Fatalf("%v: zero-degree mean row not zero: %v", target, out.Row(0))
			}
		}
	}
}

func TestSpMMGPUIsolatedVerticesZero(t *testing.T) {
	// GPU-path counterpart of TestSpMMIsolatedVerticesZero: isolated
	// vertices finalize to 0 for every operator (max/min identities are
	// ±Inf, so this exercises the epilogue, not just the fill).
	rng := rand.New(rand.NewSource(34))
	const n, d = 24, 8
	adj := graphWithIsolated(t, rng, n, 3)
	x := randTensor(rng, n, d)
	for _, agg := range []AggOp{AggSum, AggMax, AggMin, AggMean} {
		k, err := BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, agg, nil,
			Options{Target: GPU, CheckNumerics: true})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(n, d)
		if _, err := k.Run(out); err != nil {
			t.Fatalf("agg %v: %v", agg, err)
		}
		for f := 0; f < d; f++ {
			if out.At(0, f) != 0 {
				t.Fatalf("agg %v: isolated vertex row not zero: %v", agg, out.Row(0))
			}
		}
	}
}

func TestConcurrentRunsDistinctOutputs(t *testing.T) {
	// One built kernel, many concurrent Runs into distinct outputs — the
	// documented concurrency contract, checked under -race.
	k, _, adj, inputs := buildTestSpMM(t, 35, Options{Target: CPU, NumThreads: 3, GraphPartitions: 2})
	want, err := ReferenceSpMM(adj, expr.CopySrc(adj.NumCols, 8), inputs, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	outs := make([]*tensor.Tensor, runs)
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := range outs {
		outs[i] = tensor.New(adj.NumRows, 8)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = k.Run(outs[i])
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !outs[i].AllClose(want, 1e-4) {
			t.Fatalf("run %d diverged, max diff %v", i, outs[i].MaxAbsDiff(want))
		}
	}
}

func TestKernelErrorFormatAndUnwrap(t *testing.T) {
	cause := errors.New("index out of range")
	e := &KernelError{Kernel: "spmm", Target: CPU, Worker: 2, Tile: 1, Part: 0, Value: cause}
	if !errors.Is(e, cause) {
		t.Fatal("KernelError should unwrap an error panic value")
	}
	msg := e.Error()
	for _, want := range []string{"spmm/cpu", "worker 2", "tile 1", "partition 0", "index out of range"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
	bare := &KernelError{Kernel: "sddmm", Target: GPU, Worker: 3, Tile: -1, Part: -1, Value: "boom"}
	if m := bare.Error(); strings.Contains(m, "tile") || strings.Contains(m, "partition") {
		t.Fatalf("unscoped error should omit tile/partition: %q", m)
	}
	if bare.Unwrap() != nil {
		t.Fatal("non-error panic value should unwrap to nil")
	}
}

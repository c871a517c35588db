package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
)

// governedKernel is one of the six core.Kernel implementations as the
// conformance matrix sees it: how to build it over a fixed small graph, what
// it calls itself in errors and metrics, and which fault sites reach its CPU
// engine.
type governedKernel struct {
	name      string
	kernel    string // KernelError.Kernel / NumericError.Kernel
	metrics   string // kernel label of its metric set
	gpu       bool   // has a device path
	worker    string // faultinject site in its CPU workers
	output    string // faultinject data site over its CPU output
	stallSite string // StallError.Site of a stalled CPU run
	// build returns the kernel under opts, an output tensor, and the
	// reference result. No fault may be armed while it runs.
	build func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor)
}

func governedKernels() []governedKernel {
	const n, d = 32, 8
	rng := rand.New(rand.NewSource(60))
	adj := sparse.Random(rng, n, n, 4)
	adjT := adj.Transpose()
	x, y, dout := randTensor(rng, n, d), randTensor(rng, n, d), randTensor(rng, n, d)
	in := []*tensor.Tensor{x}
	copySrc, dot := expr.CopySrc(n, d), expr.DotAttention(n, d)
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	spmmWant := func(t *testing.T) *tensor.Tensor {
		want, err := ReferenceSpMM(adj, copySrc, in, AggSum)
		must(t, err)
		return want
	}
	sddmmWant := func(t *testing.T) *tensor.Tensor {
		want, err := ReferenceSDDMM(adj, dot, in)
		must(t, err)
		return want
	}
	spmmSites := governedKernel{kernel: "spmm", metrics: "spmm",
		worker: faultinject.SiteSpMMCPUWorker, output: faultinject.SiteSpMMCPUOutput, stallSite: "spmm/cpu-engine"}
	sddmmSites := governedKernel{kernel: "sddmm", metrics: "sddmm",
		worker: faultinject.SiteSDDMMCPUWorker, output: faultinject.SiteSDDMMCPUOutput, stallSite: "sddmm/cpu-engine"}
	fusedSites := governedKernel{metrics: "fusedattn", gpu: true,
		worker: faultinject.SiteFusedAttnCPUWorker, output: faultinject.SiteFusedAttnCPUOutput}

	spmm, sddmm, shSpMM, shSDDMM, fwd, bwd := spmmSites, sddmmSites, spmmSites, sddmmSites, fusedSites, fusedSites
	spmm.name, spmm.gpu = "spmm", true
	spmm.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		k, err := BuildSpMM(adj, copySrc, in, AggSum, nil, opts)
		must(t, err)
		return k, tensor.New(n, d), spmmWant(t)
	}
	sddmm.name, sddmm.gpu = "sddmm", true
	sddmm.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		opts.Hilbert = true
		k, err := BuildSDDMM(adj, dot, in, nil, opts)
		must(t, err)
		return k, tensor.New(adj.NNZ(), 1), sddmmWant(t)
	}
	shSpMM.name = "sharded-spmm"
	shSpMM.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		k, err := BuildShardedSpMM(newMemShardSource(adj, 16), copySrc, in, AggSum, nil, opts, nil)
		must(t, err)
		return k, tensor.New(n, d), spmmWant(t)
	}
	shSDDMM.name = "sharded-sddmm"
	shSDDMM.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		k, err := BuildShardedSDDMM(newMemShardSource(adj, 16), dot, in, nil, opts, nil)
		must(t, err)
		return k, tensor.New(adj.NNZ(), 1), sddmmWant(t)
	}
	fwd.name, fwd.kernel, fwd.stallSite = "fusedattn", "fusedattn", "fusedattn/cpu-engine"
	fwd.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		k, _, _ := buildFused(t, adj, x, y, gatCfg, opts)
		return k, tensor.New(n, d), refFusedAttn(adj, x, y, gatCfg)
	}
	bwd.name, bwd.kernel, bwd.stallSite = "fusedattn-bwd", "fusedattn.bwd", "fusedattn.bwd/cpu-engine"
	bwd.build = func(t *testing.T, opts Options) (Kernel, *tensor.Tensor, *tensor.Tensor) {
		// The forward fills alpha/deriv, ungoverned by the options under test.
		f, alpha, deriv := buildFused(t, adj, x, y, gatCfg, Options{Target: CPU})
		_, err := f.Run(tensor.New(n, d))
		must(t, err)
		k, err := BuildFusedAttentionBwd(adj, adjT, x, y, alpha, deriv, dout, opts)
		must(t, err)
		dx, dy := refFusedAttnBwd(adj, x, y, dout, gatCfg)
		want := tensor.New(2*n, d)
		copy(want.Data(), dx.Data())
		copy(want.Data()[n*d:], dy.Data())
		return k, tensor.New(2*n, d), want
	}
	return []governedKernel{spmm, sddmm, fwd, bwd, shSpMM, shSDDMM}
}

// ledgerIsZero fails the test when gov still holds capacity.
func ledgerIsZero(t *testing.T, gov *admission.Governor) {
	t.Helper()
	if gov.Inflight() != 0 || gov.QueueDepth() != 0 || gov.MemReserved() != 0 {
		t.Fatalf("governor leaked capacity: inflight=%d queued=%d mem=%d", gov.Inflight(), gov.QueueDepth(), gov.MemReserved())
	}
}

// TestGoverned drives every Kernel implementation through the same serving
// matrix: whatever governed.go promises must hold for all six, not for the
// one kernel a test happened to be written against.
func TestGoverned(t *testing.T) {
	const longStall = 10 * time.Second
	rows := []struct {
		name    string
		gpuOnly bool
		check   func(t *testing.T, gk governedKernel)
	}{
		{"pre-cancelled", false, func(t *testing.T, gk governedKernel) {
			targets := []Target{CPU}
			if gk.gpu {
				targets = append(targets, GPU)
			}
			for _, target := range targets {
				k, out, _ := gk.build(t, Options{Target: target, NumThreads: 2})
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := k.RunCtx(ctx, out); !errors.Is(err, context.Canceled) {
					t.Fatalf("%v: want context.Canceled, got %v", target, err)
				}
			}
		}},
		{"wrong-shape", false, func(t *testing.T, gk governedKernel) {
			k, out, _ := gk.build(t, Options{Target: CPU})
			rows, cols := k.OutShape()
			if rows != out.Dim(0) || cols != out.Dim(1) {
				t.Fatalf("OutShape = %d,%d, want %v", rows, cols, out.Shape())
			}
			for _, bad := range []*tensor.Tensor{tensor.New(rows, cols+1), tensor.New(rows+1, cols)} {
				if _, err := k.Run(bad); err == nil || !strings.Contains(err.Error(), "output shape") {
					t.Fatalf("output of shape %v: got %v, want a shape error", bad.Shape(), err)
				}
			}
		}},
		{"deadline", false, func(t *testing.T, gk governedKernel) {
			k, out, _ := gk.build(t, Options{Target: CPU, NumThreads: 2, Deadline: 20 * time.Millisecond})
			defer faultinject.Arm(gk.worker, &faultinject.Fault{Kind: faultinject.Stall, Delay: longStall})()
			start := time.Now()
			if _, err := k.RunCtx(context.Background(), out); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("RunCtx = %v, want context.DeadlineExceeded", err)
			}
			if took := time.Since(start); took > longStall/2 {
				t.Fatalf("deadline enforcement took %v", took)
			}
		}},
		{"worker-panic", false, func(t *testing.T, gk governedKernel) {
			gov := admission.NewGovernor(admission.Config{MaxConcurrent: 2})
			k, out, _ := gk.build(t, Options{Target: CPU, NumThreads: 4, Admission: gov})
			defer faultinject.Arm(gk.worker, &faultinject.Fault{Kind: faultinject.Panic, Value: "bad UDF"})()
			_, err := k.Run(out)
			var ke *KernelError
			if !errors.As(err, &ke) {
				t.Fatalf("want *KernelError, got %v", err)
			}
			if ke.Kernel != gk.kernel || ke.Target != CPU || ke.Value != "bad UDF" {
				t.Fatalf("bad KernelError fields: %+v", ke)
			}
			if msg := ke.Error(); !strings.Contains(msg, gk.kernel+"/cpu") || !strings.Contains(msg, "bad UDF") {
				t.Fatalf("unhelpful message: %q", msg)
			}
			ledgerIsZero(t, gov)
		}},
		{"numerics", false, func(t *testing.T, gk governedKernel) {
			k, out, _ := gk.build(t, Options{Target: CPU, NumThreads: 2, CheckNumerics: true})
			defer faultinject.Arm(gk.output, &faultinject.Fault{Kind: faultinject.NaN})()
			_, err := k.Run(out)
			var ne *NumericError
			if !errors.As(err, &ne) {
				t.Fatalf("want *NumericError, got %v", err)
			}
			if ne.Kernel != gk.kernel || !math.IsNaN(float64(ne.Value)) {
				t.Fatalf("bad NumericError fields: %+v", ne)
			}
			if v := out.At(ne.Row, ne.Col); !math.IsNaN(float64(v)) {
				t.Fatalf("reported location (%d,%d) holds %v, not NaN", ne.Row, ne.Col, v)
			}
			unit := "vertex"
			if gk.kernel == "sddmm" {
				unit = "edge"
			}
			if !strings.Contains(ne.Error(), unit) {
				t.Fatalf("message %q does not name the %s", ne.Error(), unit)
			}
		}},
		{"retry-recovers", false, func(t *testing.T, gk governedKernel) {
			k, out, want := gk.build(t, Options{Target: CPU, NumThreads: 2, Retries: 1, CheckNumerics: true})
			defer faultinject.Arm(gk.worker, &faultinject.Fault{Kind: faultinject.Panic, MaxFires: 1})()
			stats, err := k.RunCtx(context.Background(), out)
			if err != nil {
				t.Fatalf("RunCtx with retry: %v", err)
			}
			if stats.Retries != 1 || k.LastStats().Retries != 1 {
				t.Fatalf("Retries = %d (LastStats %d), want 1", stats.Retries, k.LastStats().Retries)
			}
			if !out.AllClose(want, 1e-3) {
				t.Fatalf("retried run produced wrong output: max diff %v", out.MaxAbsDiff(want))
			}
		}},
		{"retry-exhausted", false, func(t *testing.T, gk governedKernel) {
			k, out, _ := gk.build(t, Options{Target: CPU, NumThreads: 2, Retries: 2})
			defer faultinject.Arm(gk.worker, &faultinject.Fault{Kind: faultinject.Panic})()
			var ke *KernelError
			if _, err := k.RunCtx(context.Background(), out); !errors.As(err, &ke) {
				t.Fatalf("RunCtx = %v, want *KernelError after retries exhausted", err)
			}
		}},
		{"shed", false, func(t *testing.T, gk governedKernel) {
			gov := admission.NewGovernor(admission.Config{MaxConcurrent: 1})
			k, out, want := gk.build(t, Options{Target: CPU, Admission: gov})
			held, err := gov.Admit(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.RunCtx(context.Background(), out); !errors.Is(err, admission.ErrOverloaded) {
				t.Fatalf("run against a full governor = %v, want ErrOverloaded", err)
			}
			gov.Release(held)
			if _, err := k.RunCtx(context.Background(), out); err != nil {
				t.Fatalf("run after release: %v", err)
			}
			if !out.AllClose(want, 1e-3) {
				t.Fatalf("admitted run produced wrong output: max diff %v", out.MaxAbsDiff(want))
			}
			ledgerIsZero(t, gov)
		}},
		{"stall", false, func(t *testing.T, gk governedKernel) {
			gov := admission.NewGovernor(admission.Config{StallThreshold: 20 * time.Millisecond})
			k, out, _ := gk.build(t, Options{Target: CPU, NumThreads: 2, Admission: gov})
			defer faultinject.Arm(gk.worker, &faultinject.Fault{Kind: faultinject.Stall, Delay: longStall})()
			start := time.Now()
			_, err := k.RunCtx(context.Background(), out)
			var se *admission.StallError
			if !errors.As(err, &se) {
				t.Fatalf("stalled run returned %v, want *admission.StallError", err)
			}
			if se.Site != gk.stallSite {
				t.Fatalf("StallError.Site = %q, want %q", se.Site, gk.stallSite)
			}
			if took := time.Since(start); took > longStall/2 {
				t.Fatalf("watchdog took %v; the injected stall was not cut short", took)
			}
			ledgerIsZero(t, gov)
		}},
		{"gpu-fallback", true, func(t *testing.T, gk governedKernel) {
			k, out, want := gk.build(t, Options{Target: GPU})
			defer faultinject.Arm(faultinject.SiteCudasimBlock,
				&faultinject.Fault{Kind: faultinject.Panic, Value: "device fault"})()
			stats, err := k.Run(out)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Fallback || !strings.Contains(stats.FallbackReason, "device fault") {
				t.Fatalf("want recorded fallback, got %+v", stats)
			}
			if !out.AllClose(want, 1e-3) {
				t.Fatalf("fallback output wrong, max diff %v", out.MaxAbsDiff(want))
			}
		}},
		{"gpu-no-fallback", true, func(t *testing.T, gk governedKernel) {
			k, out, _ := gk.build(t, Options{Target: GPU, NoFallback: true})
			defer faultinject.Arm(faultinject.SiteCudasimBlock,
				&faultinject.Fault{Kind: faultinject.Panic, Value: "device fault"})()
			_, err := k.Run(out)
			var ke *KernelError
			if !errors.As(err, &ke) {
				t.Fatalf("want *KernelError, got %v", err)
			}
			if ke.Kernel != gk.kernel || ke.Target != GPU || ke.Value != "device fault" {
				t.Fatalf("bad KernelError fields: %+v", ke)
			}
		}},
		// The full breaker lifecycle through real runs: consecutive device
		// failures open it (telemetry transition counters), an open breaker
		// reroutes runs straight to CPU, and after the cooldown a half-open
		// probe against a healed device closes it again.
		{"breaker", true, func(t *testing.T, gk governedKernel) {
			toOpen := `featgraph_breaker_transitions_total{kernel="` + gk.metrics + `",to="open"}`
			toClosed := `featgraph_breaker_transitions_total{kernel="` + gk.metrics + `",to="closed"}`
			openBefore, _ := telemetry.Value(toOpen)
			closedBefore, _ := telemetry.Value(toClosed)
			k, out, want := gk.build(t, Options{
				Target: GPU, NoFallback: true,
				BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond,
			})
			disarm := faultinject.Arm(faultinject.SiteCudasimBlock, &faultinject.Fault{Kind: faultinject.Panic})
			defer faultinject.Reset()

			for i := 0; i < 2; i++ {
				var ke *KernelError
				if _, err := k.RunCtx(context.Background(), out); !errors.As(err, &ke) {
					t.Fatalf("failure %d: got %v, want *KernelError from the device", i, err)
				}
			}
			if openAfter, _ := telemetry.Value(toOpen); openAfter != openBefore+1 {
				t.Fatalf("breaker open transitions: %v -> %v, want exactly one more", openBefore, openAfter)
			}

			stats, err := k.RunCtx(context.Background(), out)
			if err != nil {
				t.Fatalf("rerouted run: %v", err)
			}
			if !stats.Fallback || stats.FallbackReason != "gpu circuit breaker open" || stats.BreakerState != "open" {
				t.Fatalf("stats = %+v, want breaker-open reroute", stats)
			}
			if !out.AllClose(want, 1e-3) {
				t.Fatalf("rerouted output wrong, max diff %v", out.MaxAbsDiff(want))
			}

			disarm()
			time.Sleep(30 * time.Millisecond)
			stats, err = k.RunCtx(context.Background(), out)
			if err != nil {
				t.Fatalf("probe run: %v", err)
			}
			if stats.Fallback {
				t.Fatal("probe run fell back to CPU; the half-open probe never reached the device")
			}
			if stats.BreakerState != "closed" {
				t.Fatalf("stats.BreakerState after recovery = %q, want closed", stats.BreakerState)
			}
			if closedAfter, _ := telemetry.Value(toClosed); closedAfter != closedBefore+1 {
				t.Fatalf("breaker closed transitions: %v -> %v, want exactly one more", closedBefore, closedAfter)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, gk := range governedKernels() {
				if row.gpuOnly && !gk.gpu {
					continue
				}
				t.Run(gk.name, func(t *testing.T) { row.check(t, gk) })
			}
		})
	}
}

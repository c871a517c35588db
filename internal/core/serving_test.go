package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// buildTestSDDMM builds a small dot-attention kernel for serving tests.
func buildTestSDDMM(t *testing.T, seed int64, opts Options) (*SDDMMKernel, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d = 32, 8
	adj := sparse.Random(rng, n, n, 4)
	x := randTensor(rng, n, d)
	k, err := BuildSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k, tensor.New(adj.NNZ(), 1)
}

// TestWatchdogStallOnGPUFallsBackToCPU: a stalled device launch looks like
// a device failure, so the watchdog trip must trigger the CPU fallback (and
// a breaker failure), not surface as a caller cancellation.
func TestWatchdogStallOnGPUFallsBackToCPU(t *testing.T) {
	defer faultinject.Arm(faultinject.SiteCudasimBlock,
		&faultinject.Fault{Kind: faultinject.Stall, Delay: 10 * time.Second})()
	gov := admission.NewGovernor(admission.Config{StallThreshold: 20 * time.Millisecond})
	k, out, _, _ := buildTestSpMM(t, 51, Options{Target: GPU, Admission: gov})

	stats, err := k.RunCtx(context.Background(), out)
	if err != nil {
		t.Fatalf("RunCtx: %v (want success via CPU fallback)", err)
	}
	if !stats.Fallback {
		t.Fatal("stalled GPU launch did not fall back to CPU")
	}
}

// TestAdmissionShedsConcurrentRuns: more concurrent runs than
// MaxConcurrent+MaxQueue must shed the excess with ErrOverloaded while
// every admitted run completes correctly.
func TestAdmissionShedsConcurrentRuns(t *testing.T) {
	defer faultinject.Arm(faultinject.SiteSpMMCPUWorker,
		&faultinject.Fault{Kind: faultinject.Stall, Delay: 30 * time.Millisecond})()
	gov := admission.NewGovernor(admission.Config{MaxConcurrent: 2, MaxQueue: 2})
	k, _, _, _ := buildTestSpMM(t, 56, Options{Target: CPU, NumThreads: 2, Admission: gov})

	const runs = 16
	var ok, shed, other int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < runs; i++ {
		wg.Add(1)
		out := tensor.New(32, 8)
		go func() {
			defer wg.Done()
			<-start
			_, err := k.RunCtx(context.Background(), out)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, admission.ErrOverloaded):
				shed++
			default:
				other++
				t.Errorf("unexpected outcome: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: want both admission and shedding under 4x overload", ok, shed)
	}
	if gov.Inflight() != 0 || gov.QueueDepth() != 0 {
		t.Fatalf("governor leaked capacity: inflight=%d queued=%d", gov.Inflight(), gov.QueueDepth())
	}
}

// TestChaosServingUnderFaults is the serving layer's acceptance test: every
// fault site armed in rotation, 4x the admission limit in concurrent runs,
// deadlines on half of them, retries on. Whatever the interleaving, each
// run must end in one of the contracted outcomes — success, overload shed,
// stall, deadline, recovered panic, numeric fault — with no deadlock and no
// goroutine leak. Run it under -race.
func TestChaosServingUnderFaults(t *testing.T) {
	scenarios := []struct {
		site   string
		kind   faultinject.Kind
		target Target
		sddmm  bool
	}{
		{faultinject.SiteSpMMCPUWorker, faultinject.Panic, CPU, false},
		{faultinject.SiteSpMMCPUWorker, faultinject.Stall, CPU, false},
		{faultinject.SiteSpMMCPUOutput, faultinject.NaN, CPU, false},
		{faultinject.SiteSDDMMCPUWorker, faultinject.Panic, CPU, true},
		{faultinject.SiteSDDMMCPUWorker, faultinject.Stall, CPU, true},
		{faultinject.SiteSDDMMCPUOutput, faultinject.NaN, CPU, true},
		{faultinject.SiteCudasimBlock, faultinject.Panic, GPU, false},
		{faultinject.SiteCudasimBlock, faultinject.Stall, GPU, false},
	}

	// Warm the shared worker pool and device path so the goroutine baseline
	// below measures leaks, not lazy initialization.
	{
		k, out, _, _ := buildTestSpMM(t, 57, Options{Target: GPU, NumThreads: 2})
		if _, err := k.RunCtx(context.Background(), out); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()

	for _, sc := range scenarios {
		sc := sc
		t.Run(fmt.Sprintf("%s-%s", sc.site, sc.kind), func(t *testing.T) {
			defer faultinject.Arm(sc.site, &faultinject.Fault{
				Kind: sc.kind, Prob: 0.4, Seed: 9, Delay: 10 * time.Second,
			})()
			gov := admission.NewGovernor(admission.Config{
				MaxConcurrent: 4, MaxQueue: 4, StallThreshold: 25 * time.Millisecond,
			})
			opts := Options{
				Target: sc.target, NumThreads: 2, GraphPartitions: 2,
				Admission: gov, Retries: 1, CheckNumerics: true,
				BreakerThreshold: 3, BreakerCooldown: 10 * time.Millisecond,
			}
			var run func(ctx context.Context) (RunStats, error)
			if sc.sddmm {
				k, _ := buildTestSDDMM(t, 58, opts)
				run = func(ctx context.Context) (RunStats, error) {
					return k.RunCtx(ctx, tensor.New(k.adj.NNZ(), 1))
				}
			} else {
				k, _, _, _ := buildTestSpMM(t, 58, opts)
				run = func(ctx context.Context) (RunStats, error) {
					return k.RunCtx(ctx, tensor.New(32, 8))
				}
			}

			const runs = 16 // 4x MaxConcurrent
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < runs; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					ctx := context.Background()
					if i%2 == 0 {
						dctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
						defer cancel()
						ctx = dctx
					}
					_, err := run(ctx)
					var (
						se *admission.StallError
						ke *KernelError
						ne *NumericError
					)
					switch {
					case err == nil:
					case errors.Is(err, admission.ErrOverloaded):
					case errors.As(err, &se):
					case errors.Is(err, context.DeadlineExceeded):
					case errors.Is(err, context.Canceled):
					case errors.As(err, &ke):
					case errors.As(err, &ne):
					default:
						t.Errorf("run %d: uncontracted outcome %v", i, err)
					}
				}()
			}
			close(start)

			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatal("chaos runs deadlocked")
			}
			if gov.Inflight() != 0 || gov.QueueDepth() != 0 {
				t.Fatalf("governor leaked capacity: inflight=%d queued=%d", gov.Inflight(), gov.QueueDepth())
			}
		})
	}
	waitGoroutines(t, before)
}

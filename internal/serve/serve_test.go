package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// testFixture builds a deterministic graph + features + model shared by the
// serving tests.
func testFixture(t *testing.T, n, degree int, dims ...int) (*sparse.CSR, *tensor.Tensor, Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	adj := sparse.Random(rng, n, n, degree)
	feats := tensor.New(n, dims[0])
	feats.FillUniform(rng, -1, 1)
	return adj, feats, RandomModel(rng, dims...)
}

// naiveInfer is an independent reference for one request: sample blocks via
// the same sampler contract, then dense mean-aggregation + layer math in
// plain loops. It matches the batcher's accumulation order, so agreement is
// checked tightly (but equality is only asserted between API runs).
func naiveInfer(t *testing.T, b *Batcher, seeds []int32) *tensor.Tensor {
	t.Helper()
	blocks, err := b.smp.Sample(seeds)
	if err != nil {
		t.Fatalf("reference sample: %v", err)
	}
	var h *tensor.Tensor
	for li, blk := range blocks {
		layer := b.model.Layers[li]
		inW := layer.Self.Dim(0)
		// Source features for this block.
		x := tensor.New(len(blk.Src), inW)
		for i, v := range blk.Src {
			if li == 0 {
				copy(x.Row(i), b.feats.Row(int(v)))
			} else {
				copy(x.Row(i), h.Row(i))
			}
		}
		// Mean aggregation over block edges.
		agg := tensor.New(blk.Adj.NumRows, inW)
		for r := 0; r < blk.Adj.NumRows; r++ {
			lo, hi := blk.Adj.RowPtr[r], blk.Adj.RowPtr[r+1]
			ar := agg.Row(r)
			for e := lo; e < hi; e++ {
				src := x.Row(int(blk.Adj.ColIdx[e]))
				for j := range ar {
					ar[j] += src[j]
				}
			}
			if deg := float32(hi - lo); deg > 0 {
				for j := range ar {
					ar[j] /= deg
				}
			}
		}
		next := tensor.New(blk.Adj.NumRows, layer.Self.Dim(1))
		layer.apply(x, agg, next, b.threads, li+1 < len(blocks))
		h = next
	}
	return h
}

func TestServeBitwiseMatchesUnbatched(t *testing.T) {
	adj, feats, model := testFixture(t, 300, 6, 12, 16, 8)
	cfg := Config{Fanouts: []int{5, 5}, SampleSeed: 42, NumThreads: 2}

	// Batched: generous window so concurrent requests coalesce.
	bc := cfg
	bc.Window = 200 * time.Millisecond
	bc.MaxBatch = 4096
	batched, err := New(adj, feats, model, bc)
	if err != nil {
		t.Fatalf("New(batched): %v", err)
	}
	defer batched.Close()

	// Unbatched: MaxBatch 1 dispatches every request alone.
	uc := cfg
	uc.MaxBatch = 1
	solo, err := New(adj, feats, model, uc)
	if err != nil {
		t.Fatalf("New(solo): %v", err)
	}
	defer solo.Close()

	rng := rand.New(rand.NewSource(99))
	reqs := make([][]int32, 24)
	for i := range reqs {
		k := 1 + rng.Intn(5)
		seen := map[int32]bool{}
		for len(reqs[i]) < k {
			s := int32(rng.Intn(adj.NumRows))
			if !seen[s] {
				seen[s] = true
				reqs[i] = append(reqs[i], s)
			}
		}
	}

	results := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i, seeds := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := batched.Serve(context.Background(), Request{Seeds: seeds})
			if err != nil {
				t.Errorf("batched request %d: %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()

	maxBatch := 0
	for i, seeds := range reqs {
		if results[i].Out == nil {
			continue
		}
		maxBatch = max(maxBatch, results[i].Info.BatchRequests)
		ref, err := solo.Serve(context.Background(), Request{Seeds: seeds})
		if err != nil {
			t.Fatalf("solo request %d: %v", i, err)
		}
		if ref.Info.BatchRequests != 1 {
			t.Fatalf("solo request %d coalesced: %d requests in batch", i, ref.Info.BatchRequests)
		}
		if d := results[i].Out.MaxAbsDiff(ref.Out); d != 0 {
			t.Fatalf("request %d: batched differs from unbatched by %g (not bitwise)", i, d)
		}
		naive := naiveInfer(t, solo, seeds)
		if d := results[i].Out.MaxAbsDiff(naive); d > 1e-5 {
			t.Fatalf("request %d: batched differs from naive reference by %g", i, d)
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed (max batch %d requests)", maxBatch)
	}

	// Steady state should reuse compiled plans, not rebuild per batch.
	built, reused := solo.plans.stats()
	if reused == 0 {
		t.Fatalf("plan pool never reused (built=%d reused=%d)", built, reused)
	}
	if built > 2*uint64(len(cfg.Fanouts))*classFreeCap {
		t.Fatalf("plan pool built %d plans for %d-layer solo runs", built, len(cfg.Fanouts))
	}
}

// fakeTimer lets the test decide when the batching window closes.
type fakeTimer struct {
	c       chan time.Time
	stopped atomic.Bool
}

func (f *fakeTimer) C() <-chan time.Time { return f.c }
func (f *fakeTimer) Stop()               { f.stopped.Store(true) }

func TestBatcherWindowCoalescing(t *testing.T) {
	adj, feats, model := testFixture(t, 100, 4, 8, 6)
	b, err := New(adj, feats, model, Config{
		Fanouts: []int{3}, SampleSeed: 1,
		Window: time.Hour, MaxBatch: 1024, NumThreads: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()

	timers := make(chan *fakeTimer, 4)
	b.newTimer = func(d time.Duration) batchTimer {
		// The window deadline runs from the first request's arrival, so
		// the timer gets 1h minus its (tiny) queueing delay.
		if d <= 0 || d > time.Hour {
			t.Errorf("window timer created with %v, want within (0, 1h]", d)
		}
		ft := &fakeTimer{c: make(chan time.Time)}
		timers <- ft
		return ft
	}

	// Enqueue pendings directly so the sequencing is deterministic: the
	// first opens the window (the dispatcher creates the timer), the
	// second is provably consumed into the open batch before it closes.
	enqueue := func(seeds ...int32) *pending {
		p := &pending{
			ctx: context.Background(), req: Request{Seeds: seeds},
			submit: time.Now(), done: make(chan struct{}),
		}
		b.reqs <- p
		return p
	}
	p1 := enqueue(1, 2)
	ft := <-timers
	p2 := enqueue(3)
	// Wait until the dispatcher has drained the queue into the open batch.
	for deadline := time.Now().Add(5 * time.Second); len(b.reqs) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never consumed the second request")
		}
		time.Sleep(time.Millisecond)
	}
	ft.c <- time.Now() // close the window

	for _, p := range []*pending{p1, p2} {
		<-p.done
		if p.err != nil {
			t.Fatalf("request failed: %v", p.err)
		}
		if p.res.Info.BatchRequests != 2 || p.res.Info.BatchSeeds != 3 {
			t.Fatalf("batch info = %d requests / %d seeds, want 2/3", p.res.Info.BatchRequests, p.res.Info.BatchSeeds)
		}
		if p.res.Info.KernelLaunches != 1 {
			t.Fatalf("coalesced batch launched %d kernels, want 1", p.res.Info.KernelLaunches)
		}
	}
	if !ft.stopped.Load() {
		t.Fatal("window timer not stopped after dispatch")
	}
}

func TestServeTenantQuotaShed(t *testing.T) {
	adj, feats, model := testFixture(t, 100, 4, 8, 6)
	q := admission.NewTenantQuotas(admission.QuotaConfig{RatePerSec: 500, Burst: 3})
	b, err := New(adj, feats, model, Config{
		Fanouts: []int{3}, NumThreads: 1, Quota: q,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()

	// Burst of 3 single-seed requests passes; the 4th sheds.
	for i := 0; i < 3; i++ {
		if _, err := b.Serve(context.Background(), Request{Tenant: "t1", Seeds: []int32{int32(i)}}); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err = b.Serve(context.Background(), Request{Tenant: "t1", Seeds: []int32{9}})
	var qe *admission.QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("over-quota request: got %v, want QuotaError matching ErrOverloaded", err)
	}
	if qe.Tenant != "t1" || qe.RetryAfter <= 0 {
		t.Fatalf("QuotaError lacks hint: %+v", qe)
	}

	// Another tenant is unaffected; t1 recovers after refill.
	if _, err := b.Serve(context.Background(), Request{Tenant: "t2", Seeds: []int32{5}}); err != nil {
		t.Fatalf("isolated tenant shed: %v", err)
	}
	time.Sleep(qe.RetryAfter + 20*time.Millisecond)
	if _, err := b.Serve(context.Background(), Request{Tenant: "t1", Seeds: []int32{9}}); err != nil {
		t.Fatalf("t1 after refill: %v", err)
	}
}

func TestServeValidation(t *testing.T) {
	adj, feats, model := testFixture(t, 50, 4, 8, 6)

	if _, err := New(adj, feats, model, Config{Fanouts: []int{3, 3}}); err == nil {
		t.Fatal("fanout/layer mismatch accepted")
	}
	if _, err := New(adj, tensor.New(50, 5), model, Config{Fanouts: []int{3}}); err == nil {
		t.Fatal("feature width mismatch accepted")
	}

	b, err := New(adj, feats, model, Config{Fanouts: []int{3}, NumThreads: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := b.Serve(ctx, Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := b.Serve(ctx, Request{Seeds: []int32{50}}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := b.Serve(ctx, Request{Seeds: []int32{1, 1}}); err == nil {
		t.Fatal("duplicate seeds accepted")
	}

	b.Close()
	b.Close() // idempotent
	if _, err := b.Serve(ctx, Request{Seeds: []int32{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close: got %v, want ErrClosed", err)
	}
}

func TestServeCanceledRequest(t *testing.T) {
	adj, feats, model := testFixture(t, 100, 4, 8, 6)
	b, err := New(adj, feats, model, Config{Fanouts: []int{3}, NumThreads: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Serve(ctx, Request{Seeds: []int32{1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request: got %v, want context.Canceled", err)
	}
	// The batcher keeps working for live callers afterwards.
	if _, err := b.Serve(context.Background(), Request{Seeds: []int32{2}}); err != nil {
		t.Fatalf("request after cancellation: %v", err)
	}
}

// TestServeSoak drives thousands of concurrent requests through a tightly
// provisioned batcher: quota and queue sheds must surface as typed errors,
// everything else must be served, and shutdown must not leak goroutines.
// CI runs this under -race as the serving soak smoke.
func TestServeSoak(t *testing.T) {
	adj, feats, model := testFixture(t, 2000, 5, 8, 8, 4)
	q := admission.NewTenantQuotas(admission.QuotaConfig{RatePerSec: 100000, Burst: 400})
	b, err := New(adj, feats, model, Config{
		Fanouts:    []int{4, 4},
		SampleSeed: 3,
		Window:     500 * time.Microsecond,
		MaxBatch:   256,
		MaxQueue:   64,
		NumThreads: 2,
		Quota:      q,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	before := runtime.NumGoroutine()
	const users, perUser = 500, 4
	var served, shedQuota, shedQueue, failed atomic.Int64
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u)))
			tenant := []string{"alpha", "beta", "gamma"}[u%3]
			for i := 0; i < perUser; i++ {
				seeds := []int32{int32(rng.Intn(adj.NumRows))}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				res, err := b.Serve(ctx, Request{Tenant: tenant, Seeds: seeds})
				cancel()
				switch {
				case err == nil:
					if res.Out.Dim(0) != 1 || res.Out.Dim(1) != model.OutDim() {
						t.Errorf("bad output shape %v", res.Out.Shape())
					}
					served.Add(1)
				case func() bool { var qe *admission.QuotaError; return errors.As(err, &qe) }():
					shedQuota.Add(1)
				case errors.Is(err, admission.ErrOverloaded):
					shedQueue.Add(1)
				default:
					failed.Add(1)
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	b.Close()

	total := served.Load() + shedQuota.Load() + shedQueue.Load() + failed.Load()
	if total != users*perUser {
		t.Fatalf("accounted %d outcomes, want %d", total, users*perUser)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed unexpectedly", failed.Load())
	}
	if served.Load() == 0 {
		t.Fatal("soak served nothing")
	}
	t.Logf("soak: served=%d shed_quota=%d shed_queue=%d", served.Load(), shedQuota.Load(), shedQueue.Load())

	// Goroutine-leak check: the dispatcher must be gone after Close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutine leak after Close: %d before, %d after", before, g)
	}
}

// pinSource is a SnapshotSource that counts pins and releases, so tests
// can assert the batcher never leaks a snapshot reference.
type pinSource struct {
	adj      *sparse.CSR
	ver      atomic.Uint64
	pins     atomic.Int64
	releases atomic.Int64
}

func (s *pinSource) PinLatest() (*sparse.CSR, uint64, func(), error) {
	s.pins.Add(1)
	var done atomic.Bool
	return s.adj, s.ver.Load(), func() {
		if done.CompareAndSwap(false, true) {
			s.releases.Add(1)
		}
	}, nil
}

func (s *pinSource) NumVertices() int { return s.adj.NumRows }

// TestCloseDuringOpenWindow closes the batcher while a batching window is
// open with collected waiters inside it. Every waiter must get ErrClosed
// (no final batch runs after Close), the dispatcher must exit (no
// goroutine leak), and every pinned snapshot must have been released.
func TestCloseDuringOpenWindow(t *testing.T) {
	adj, feats, model := testFixture(t, 40, 3, 4, 5, 3)
	src := &pinSource{adj: adj}
	src.ver.Store(1)
	b, err := NewDynamic(src, feats, model, Config{
		Fanouts:    []int{2, 2},
		Window:     time.Hour, // the window must still be open at Close
		MaxBatch:   64,
		NumThreads: 2,
	})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}

	// One warm-up batch proves the pin/release pairing on the happy path.
	// MaxBatch 1 is not used here; a single request dispatches only when
	// its window closes, so run it through a second batcher with no window.
	warm, err := NewDynamic(src, feats, model, Config{Fanouts: []int{2, 2}, NumThreads: 2})
	if err != nil {
		t.Fatalf("NewDynamic warm: %v", err)
	}
	if res, err := warm.Serve(context.Background(), Request{Seeds: []int32{3}}); err != nil {
		t.Fatalf("warm serve: %v", err)
	} else if res.Info.GraphVersion != 1 {
		t.Fatalf("warm serve ran against version %d, want 1", res.Info.GraphVersion)
	}
	warm.Close()
	if p, r := src.pins.Load(), src.releases.Load(); p == 0 || p != r {
		t.Fatalf("warm path leaked snapshot pins: %d pinned, %d released", p, r)
	}

	before := runtime.NumGoroutine()
	const waiters = 6
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			_, err := b.Serve(context.Background(), Request{Seeds: []int32{int32(i)}})
			errs <- err
		}()
	}
	// Wait until the dispatcher has opened the window (the queue drains
	// into the collecting batch).
	deadline := time.Now().Add(5 * time.Second)
	for len(b.reqs) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the last dequeued request join the batch
	b.Close()

	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter stuck after Close: goroutine leaked")
		}
	}
	if p, r := src.pins.Load(), src.releases.Load(); p != r {
		t.Fatalf("snapshot pins leaked across Close: %d pinned, %d released", p, r)
	}
	// Close is idempotent and post-Close submits fail fast.
	b.Close()
	if _, err := b.Serve(context.Background(), Request{Seeds: []int32{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Serve: %v", err)
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after Close: %d before, %d after", before, g)
	}
}

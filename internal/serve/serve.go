// Package serve is the request-level online inference layer: GraphSage
// block inference over sampled neighborhoods (internal/sample), a dynamic
// micro-batcher that coalesces concurrent per-user requests inside a
// deadline window into one merged block per layer and one fused kernel
// launch each (plans reused by block shape class, not pointer identity —
// see plans.go), and per-tenant token-bucket quotas layered on the
// admission governor.
//
// The batcher's contract is bitwise request independence: because sampling
// is per-(layer, vertex) deterministic (minibatch-independent), mean
// aggregation is row-local over edges kept in ascending order, and the
// dense layers are row-local with a fixed accumulation order, the rows a
// request receives from a merged batch are bit-identical to running that
// request alone. Batching changes latency and throughput, never answers.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/dgl"
	"featgraph/internal/sample"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// Config configures a Batcher.
type Config struct {
	// Fanouts is the per-layer sampling cap (sample.Config.Fanouts); its
	// length must equal the model's layer count.
	Fanouts []int
	// SampleSeed fixes the sampler hash (sample.Config.Seed).
	SampleSeed int64
	// Window is how long a batch stays open for more arrivals, measured
	// from its first request's arrival (time spent queued behind an
	// executing batch counts, so a saturated batcher never idles). 0
	// coalesces only what is already queued (greedy, lowest latency
	// floor).
	Window time.Duration
	// MaxBatch caps the merged batch in seeds; a full batch dispatches
	// before the window closes. <= 0 defaults to 512.
	MaxBatch int
	// MaxQueue bounds requests waiting for the dispatcher; beyond it
	// Serve sheds with an *admission.OverloadError. <= 0 defaults to 1024.
	MaxQueue int
	// NumThreads is the CPU parallelism for kernels and dense layers.
	// <= 0 defaults to 4.
	NumThreads int
	// Admission optionally routes kernel launches through a governor
	// (memory ledger + concurrency). nil uses the process default.
	Admission *admission.Governor
	// Quota optionally enforces per-tenant token buckets; nil disables
	// quota checks.
	Quota *admission.TenantQuotas
}

// Request is one user's inference request: produce output embeddings for
// its seed vertices. Seeds must be distinct within a request.
type Request struct {
	// Tenant attributes the request for quota purposes ("" is a valid
	// tenant name sharing one bucket).
	Tenant string
	// Seeds are the vertices to infer.
	Seeds []int32
}

// RunInfo describes how a request was executed — the serving analogue of
// dgl.RunInfo, request-scoped by construction.
type RunInfo struct {
	// BatchRequests and BatchSeeds describe the merged batch this request
	// rode in (1 and len(Seeds) when it ran alone).
	BatchRequests int
	BatchSeeds    int
	// KernelLaunches counts SpMM launches the batch issued (one per
	// model layer).
	KernelLaunches int
	// PlanBuilt and PlanReused count shape-class plan-pool traffic for
	// the batch: steady state is 0 built.
	PlanBuilt  int
	PlanReused int
	// BlockEdges totals sampled edges across the batch's blocks.
	BlockEdges int
	// GraphVersion is the snapshot version the batch executed against —
	// every seed in a merged batch sees the same committed topology. 0
	// for a static-graph batcher (New).
	GraphVersion uint64
	// Queued is this request's wait from submit to batch dispatch.
	Queued time.Duration
	// Kernel aggregates the batch's kernel-run stats (admission queueing,
	// retries, fallbacks).
	Kernel dgl.RunInfo
}

// Result is a completed request: one output row per requested seed, in
// request order.
type Result struct {
	Out  *tensor.Tensor
	Info RunInfo
}

// ErrClosed is returned by Serve after Close.
var ErrClosed = fmt.Errorf("serve: batcher closed")

// pending is one queued request with its completion channel.
type pending struct {
	ctx      context.Context
	req      Request
	submit   time.Time
	slots    []int32 // merged-batch row of each seed, filled at dispatch
	res      Result
	err      error
	done     chan struct{}
	finished bool
}

func (p *pending) finish(res Result, err error) {
	if p.finished {
		return
	}
	p.finished = true
	p.res, p.err = res, err
	close(p.done)
}

// batchTimer abstracts the window timer so tests drive coalescing with a
// fake clock.
type batchTimer interface {
	C() <-chan time.Time
	Stop()
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop()               { rt.t.Stop() }

// SnapshotSource supplies a live, versioned graph to a dynamic Batcher.
// PinLatest pins the newest ready snapshot for one batch: the returned
// adjacency must stay immutable until release is called. delta.Engine
// satisfies this (structurally — serve does not import it).
type SnapshotSource interface {
	PinLatest() (adj *sparse.CSR, ver uint64, release func(), err error)
	NumVertices() int
}

// Batcher coalesces concurrent inference requests into merged sampled
// batches executed with shape-class-cached kernels. Create with New (fixed
// graph) or NewDynamic (versioned snapshot source), feed with Serve from
// any number of goroutines, and Close when done.
type Batcher struct {
	feats   *tensor.Tensor
	model   Model
	smp     *sample.Sampler
	cfg     Config
	plans   *planPool
	threads int

	// Dynamic-graph state: src supplies per-batch snapshots; nv is the
	// (fixed) vertex count. smpVer/smpCached memoize the sampler for the
	// latest pinned version — versions are monotonic, so one entry
	// suffices. Touched only by the dispatcher goroutine.
	src       SnapshotSource
	nv        int
	smpVer    uint64
	smpCached *sample.Sampler

	reqs chan *pending
	quit chan struct{}
	done chan struct{}

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool

	// newTimer is swapped by tests for deterministic window control.
	newTimer func(time.Duration) batchTimer
}

// New builds a Batcher over an in-edge adjacency, per-vertex input
// features ([NumVertices, model in-width]) and a model. The adjacency is
// retained and must not be mutated while the batcher lives.
func New(adj *sparse.CSR, feats *tensor.Tensor, model Model, cfg Config) (*Batcher, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Fanouts) != len(model.Layers) {
		return nil, fmt.Errorf("serve: %d fanouts for a %d-layer model", len(cfg.Fanouts), len(model.Layers))
	}
	smp, err := sample.New(adj, sample.Config{Fanouts: cfg.Fanouts, Seed: cfg.SampleSeed})
	if err != nil {
		return nil, err
	}
	b, err := build(feats, model, cfg, adj.NumRows)
	if err != nil {
		return nil, err
	}
	b.smp = smp
	go b.dispatch()
	return b, nil
}

// NewDynamic builds a Batcher over a versioned snapshot source (a
// delta.Engine): each batch pins the newest ready snapshot, so every seed
// in the batch sees one committed topology, commits never block serving,
// and Result.Info.GraphVersion records which version answered. Samplers
// are rebuilt per version without re-validating the adjacency (snapshots
// are well-formed by construction).
func NewDynamic(src SnapshotSource, feats *tensor.Tensor, model Model, cfg Config) (*Batcher, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Fanouts) != len(model.Layers) {
		return nil, fmt.Errorf("serve: %d fanouts for a %d-layer model", len(cfg.Fanouts), len(model.Layers))
	}
	if src == nil {
		return nil, fmt.Errorf("serve: nil snapshot source")
	}
	b, err := build(feats, model, cfg, src.NumVertices())
	if err != nil {
		return nil, err
	}
	b.src = src
	go b.dispatch()
	return b, nil
}

// build assembles the parts New and NewDynamic share; nv is the graph's
// vertex count for feature validation and request range checks.
func build(feats *tensor.Tensor, model Model, cfg Config, nv int) (*Batcher, error) {
	if feats == nil || feats.Dim(0) != nv || feats.Dim(1) != model.InDim() {
		return nil, fmt.Errorf("serve: features must be [%d, %d]", nv, model.InDim())
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.NumThreads <= 0 {
		cfg.NumThreads = 4
	}
	return &Batcher{
		feats:    feats,
		model:    model,
		cfg:      cfg,
		plans:    newPlanPool(cfg.NumThreads, cfg.Admission),
		threads:  cfg.NumThreads,
		nv:       nv,
		reqs:     make(chan *pending, cfg.MaxQueue),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		newTimer: func(d time.Duration) batchTimer { return realTimer{time.NewTimer(d)} },
	}, nil
}

// Serve submits one request and blocks until its result, a shed, an error,
// or ctx cancellation. Shed errors (quota or full queue) match
// admission.ErrOverloaded via errors.Is.
func (b *Batcher) Serve(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(req.Seeds) == 0 {
		return Result{}, fmt.Errorf("serve: request has no seeds")
	}
	n := b.nv
	seen := make(map[int32]struct{}, len(req.Seeds))
	for _, s := range req.Seeds {
		if s < 0 || int(s) >= n {
			return Result{}, fmt.Errorf("serve: seed %d out of range [0,%d)", s, n)
		}
		if _, dup := seen[s]; dup {
			return Result{}, fmt.Errorf("serve: duplicate seed %d in request", s)
		}
		seen[s] = struct{}{}
	}
	if b.cfg.Quota != nil {
		// One token per seed: a 10-seed request costs 10× a 1-seed one.
		if err := b.cfg.Quota.Allow(req.Tenant, float64(len(req.Seeds))); err != nil {
			mShedQuota.Inc()
			return Result{}, err
		}
	}

	p := &pending{ctx: ctx, req: req, submit: time.Now(), done: make(chan struct{})}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case b.reqs <- p:
		b.mu.RUnlock()
	default:
		depth := len(b.reqs)
		b.mu.RUnlock()
		mShedQueue.Inc()
		return Result{}, &admission.OverloadError{
			QueueDepth: depth,
			RetryAfter: max(b.cfg.Window, time.Millisecond),
		}
	}

	select {
	case <-p.done:
		if p.err != nil {
			mFailed.Inc()
			return Result{}, p.err
		}
		mServed.Inc()
		hLatency.Observe(time.Since(p.submit))
		return p.res, nil
	case <-ctx.Done():
		// The dispatcher may still execute the request; its result is
		// dropped. Callers own their deadline, the batch owns its run.
		mFailed.Inc()
		return Result{}, ctx.Err()
	}
}

// Close stops the dispatcher, waits for the in-flight batch, and fails
// queued requests with ErrClosed. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
	// No new enqueues can occur (closed is set); drain survivors.
	for {
		select {
		case p := <-b.reqs:
			p.finish(Result{}, ErrClosed)
		default:
			return
		}
	}
}

// dispatch is the single batching loop: collect a batch (first arrival
// opens a window; the window closing, the batch filling, or shutdown
// closes it), execute it, repeat.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		// Shutdown wins over new work when both are ready.
		select {
		case <-b.quit:
			return
		default:
		}
		var first *pending
		select {
		case first = <-b.reqs:
		case <-b.quit:
			return
		}
		batch := []*pending{first}
		seeds := len(first.req.Seeds)
		// The window is an absolute deadline from the first request's
		// ARRIVAL, not from collection start: a request that already
		// queued behind the previous batch's execution has spent its
		// window, so under saturation the dispatcher drains greedily and
		// executes back to back (100% duty cycle) instead of idling a
		// full window per batch.
		wait := time.Duration(0)
		if b.cfg.Window > 0 {
			wait = b.cfg.Window - time.Since(first.submit)
		}
		if wait > 0 && seeds < b.cfg.MaxBatch {
			timer := b.newTimer(wait)
		collect:
			for seeds < b.cfg.MaxBatch {
				select {
				case p := <-b.reqs:
					batch = append(batch, p)
					seeds += len(p.req.Seeds)
				case <-timer.C():
					break collect
				case <-b.quit:
					// Close interrupted an open window: fail the
					// collected members immediately rather than running
					// a final batch — Close promises no work starts
					// after it, and every waiter gets ErrClosed.
					timer.Stop()
					for _, p := range batch {
						p.finish(Result{}, ErrClosed)
					}
					return
				}
			}
			timer.Stop()
		} else {
			// Greedy: take whatever is already queued.
			for seeds < b.cfg.MaxBatch {
				select {
				case p := <-b.reqs:
					batch = append(batch, p)
					seeds += len(p.req.Seeds)
				default:
					seeds = b.cfg.MaxBatch
				}
			}
		}
		b.runBatch(batch)
	}
}

// runBatch merges, samples, executes, and slices one batch.
func (b *Batcher) runBatch(batch []*pending) {
	start := time.Now()
	live := batch[:0]
	for _, p := range batch {
		if p.ctx.Err() != nil {
			p.finish(Result{}, p.ctx.Err())
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}

	// Merge seed sets, recording each request's rows in the merged order.
	var merged []int32
	slot := make(map[int32]int32)
	for _, p := range live {
		p.slots = make([]int32, len(p.req.Seeds))
		for i, s := range p.req.Seeds {
			ls, ok := slot[s]
			if !ok {
				ls = int32(len(merged))
				slot[s] = ls
				merged = append(merged, s)
			}
			p.slots[i] = ls
		}
	}

	smp, gver, release, err := b.samplerForBatch()
	if err != nil {
		for _, p := range live {
			p.finish(Result{}, fmt.Errorf("serve: batch of %d requests: %w", len(live), err))
		}
		return
	}
	bctx, cancel := b.batchCtx(live)
	out, info, err := b.infer(bctx, smp, merged)
	cancel()
	release()
	info.GraphVersion = gver
	if err != nil {
		for _, p := range live {
			p.finish(Result{}, fmt.Errorf("serve: batch of %d requests: %w", len(live), err))
		}
		return
	}
	info.BatchRequests = len(live)
	info.BatchSeeds = len(merged)
	mBatches.Inc()
	mBatchedRequests.Add(uint64(len(live)))
	hBatchExec.Observe(time.Since(start))

	width := b.model.OutDim()
	for _, p := range live {
		res := Result{Out: tensor.New(len(p.slots), width), Info: info}
		res.Info.Queued = start.Sub(p.submit)
		od := res.Out.Data()
		for i, ls := range p.slots {
			copy(od[i*width:(i+1)*width], out.Row(int(ls)))
		}
		p.finish(res, nil)
	}
}

// batchCtx derives the context batch kernels run under: the earliest
// deadline among member requests (their cancellations are per-request —
// a member abandoning the batch must not abort its cohabitants).
func (b *Batcher) batchCtx(live []*pending) (context.Context, context.CancelFunc) {
	var earliest time.Time
	for _, p := range live {
		if dl, ok := p.ctx.Deadline(); ok && (earliest.IsZero() || dl.Before(earliest)) {
			earliest = dl
		}
	}
	if earliest.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), earliest)
}

// samplerForBatch resolves the sampler one batch runs against. A static
// batcher returns its fixed sampler; a dynamic one pins the newest ready
// snapshot (held until release) and memoizes the sampler built for that
// version. Called only from the dispatcher goroutine.
func (b *Batcher) samplerForBatch() (*sample.Sampler, uint64, func(), error) {
	if b.src == nil {
		return b.smp, 0, func() {}, nil
	}
	adj, ver, release, err := b.src.PinLatest()
	if err != nil {
		return nil, 0, nil, err
	}
	if b.smpCached == nil || b.smpVer != ver {
		smp, err := sample.NewTrusted(adj, sample.Config{Fanouts: b.cfg.Fanouts, Seed: b.cfg.SampleSeed})
		if err != nil {
			release()
			return nil, 0, nil, err
		}
		b.smpCached, b.smpVer = smp, ver
	}
	return b.smpCached, ver, release, nil
}

// infer runs the layered block computation for the merged seed list and
// returns the [len(seeds), OutDim] output.
func (b *Batcher) infer(ctx context.Context, smp *sample.Sampler, seeds []int32) (*tensor.Tensor, RunInfo, error) {
	var info RunInfo
	blocks, err := smp.Sample(seeds)
	if err != nil {
		return nil, info, err
	}
	for _, blk := range blocks {
		info.BlockEdges += blk.Adj.NNZ()
	}

	// h holds features over blocks[li].Src; for the input layer they are
	// gathered from the global feature matrix by vertex id.
	var h *tensor.Tensor
	for li, blk := range blocks {
		layer := b.model.Layers[li]
		inW := layer.Self.Dim(0)
		rows, cols, nnz := blk.Adj.NumRows, blk.Adj.NumCols, blk.Adj.NNZ()

		plan, err := b.plans.acquire(rows, cols, nnz, inW)
		if err != nil {
			return nil, info, err
		}
		if li == 0 {
			plan.stage(blk.Adj, blk.Src, b.feats, true)
		} else {
			plan.stage(blk.Adj, blk.Src, h, false)
		}
		stats, err := plan.kernel.RunCtx(ctx, plan.out)
		if err != nil {
			b.plans.release(plan)
			return nil, info, err
		}
		info.KernelLaunches++
		info.Kernel.Runs++
		info.Kernel.Queued += stats.Queued
		info.Kernel.Retries += stats.Retries
		if stats.Fallback {
			info.Kernel.Fallbacks++
			info.Kernel.FallbackReason = stats.FallbackReason
		}

		// Dense: out[r] = act(h_dst[r]·Self + agg[r]·Neigh). The dst rows
		// of this block are a prefix of its src rows, so their features
		// are the first `rows` rows of the staged input — read them from
		// plan.x, which holds them for both the gathered and copied case.
		next := tensor.New(rows, layer.Self.Dim(1))
		layer.apply(plan.x, plan.out, next, b.threads, li+1 < len(blocks))
		b.plans.release(plan)
		h = next
	}
	built, reused := b.plans.stats()
	info.PlanBuilt, info.PlanReused = int(built), int(reused)
	return h, info, nil
}

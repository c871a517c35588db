package main

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"featgraph"
	"featgraph/benchmark/harness"
	"featgraph/internal/graphgen"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// What serve_static and serve_mutating share: the graph, model and batcher
// configuration, the open- and closed-loop phases, and the request spans.

type serveParams struct {
	n, deg         int // graphgen.Skewed(n, deg, 1.4)
	d, hidden, out int
	fanouts        []int
	window         time.Duration
	maxBatch       int
	maxQueue       int
	clients        int     // closed loop (serve_static phase A)
	rateB, rateC   float64 // open loop, serve_static phases B and C
	rateM          float64 // open loop, serve_mutating
	commitEvery    time.Duration
	commitEdges    int           // inserts per commit, and deletes per commit
	verify         int           // requests re-run alone for the bitwise check
	warm           time.Duration // length of each warm-up phase of a set-up
}

func serveParamsFor(smoke bool) serveParams {
	p := serveParams{
		n: 20000, deg: 16, d: 32, hidden: 32, out: 8, fanouts: []int{10, 10},
		window: 2 * time.Millisecond, maxBatch: 512, maxQueue: 4096,
		clients: 256, rateB: 12000, rateC: 4000, rateM: 4000,
		commitEvery: 10 * time.Millisecond, commitEdges: 8, verify: 32,
		warm: 300 * time.Millisecond,
	}
	if smoke {
		p.n, p.deg, p.clients, p.rateB, p.rateC, p.rateM, p.verify = 2000, 8, 32, 4000, 2000, 2000, 8
		p.warm = 50 * time.Millisecond
	}
	return p
}

const (
	// tailWindow is the length of the windows a reported tail percentile is
	// the median over; at 4000 req/s a window holds 2000 samples, 20 beyond
	// its p99.
	tailWindow = 500 * time.Millisecond
	minBeyond  = 10
	// lateLimit: a reply later than this counts as a failed request.
	lateLimit = time.Second
)

// serveInputs are generated from the seed, once per run.
type serveInputs struct {
	p     serveParams
	adj   *sparse.CSR
	feats *tensor.Tensor
	model featgraph.ServeModel
	seeds []int32 // request seeds, drawn with replacement; requests index it modulo its length
}

func newServeInputs(r *Run) *serveInputs {
	p := serveParamsFor(r.Smoke)
	in := &serveInputs{p: p, adj: graphgen.Skewed(r.rng(1), p.n, p.deg, 1.4), feats: uniform(r.rng(2), p.n, p.d)}
	rng := r.rng(3)
	dims := []int{p.d, p.hidden, p.out}
	for i := 0; i+1 < len(dims); i++ {
		self, neigh := tensor.New(dims[i], dims[i+1]), tensor.New(dims[i], dims[i+1])
		self.FillGlorot(rng)
		neigh.FillGlorot(rng)
		in.model.Layers = append(in.model.Layers, featgraph.ServeLayer{Self: self, Neigh: neigh})
	}
	rng = r.rng(4)
	in.seeds = make([]int32, 1<<16)
	for i := range in.seeds {
		in.seeds[i] = int32(rng.Intn(p.n))
	}
	return in
}

func (in *serveInputs) config(r *Run, window time.Duration) featgraph.ServeConfig {
	return featgraph.NewServeConfig(
		featgraph.WithFanouts(in.p.fanouts...), featgraph.WithSampleSeed(r.Seed),
		featgraph.WithBatchWindow(window), featgraph.WithMaxBatch(in.p.maxBatch),
		featgraph.WithServeQueue(in.p.maxQueue), featgraph.WithServeThreads(r.Threads))
}

// outcome is what one request's goroutine recorded about it.
type outcome struct {
	info featgraph.ServeRunInfo
	err  error
	out  *tensor.Tensor // kept only for the requests the bitwise check re-runs
	// serve_mutating only: the newest version any reply had carried when
	// this request was sent, and the committed tip when its reply arrived.
	floor, tip uint64
}

// hooks customise an open-loop phase. keep names the request indices whose
// output rows are retained; before and after run on the request's
// goroutine around its Serve call.
type hooks struct {
	keep          map[int]bool
	before, after func(*outcome)
}

// phase is one open-loop phase's record.
type phase struct {
	start time.Time
	sent  []harness.Sent
	got   []outcome
	lat   []harness.Timed // latency from due time, +Inf for shed, failed and late
}

// traceStripe is how a traced open-loop phase carries its own control: the
// requests due in every other stripe record their spans, on their own
// goroutines as the reply arrives; the stripes between run untouched. Both
// kinds share one phase, so the difference between their latencies is what
// recording costs a request, free of the drift between two phases. At 10 ms
// a stripe holds a few batching windows; at 100 ms the difference still
// followed disturbances a few hundred milliseconds long (±0.03 over four
// runs, against ±0.005).
const traceStripe = 10 * time.Millisecond

// openLoop offers single-seed requests to b at a fixed rate for d; request
// i asks for seed first+i of the run's seed list. Traced, a request is
// three spans: request (due → reply) ⊃ Serve (call → reply) ⊃ the queue
// wait the batcher reported for it.
func (in *serveInputs) openLoop(r *Run, b *featgraph.Batcher, name string, rate float64, d time.Duration, first int, h hooks) *phase {
	n := int(rate * d.Seconds())
	ph := &phase{got: make([]outcome, n), lat: make([]harness.Timed, n)}
	ctx := context.Background()
	recorded := func(i int) bool {
		return r.tr != nil && int(float64(i)/rate/traceStripe.Seconds())%2 == 0
	}
	ph.start, ph.sent = harness.OpenLoop(harness.RealClock{}, rate, n, in.p.maxQueue, func(i int, due time.Time) {
		o := &ph.got[i]
		if h.before != nil {
			h.before(o)
		}
		var called time.Time
		if recorded(i) {
			called = time.Now()
		}
		var res featgraph.ServeResult
		res, o.err = b.Serve(ctx, featgraph.ServeRequest{Seeds: []int32{in.seeds[(first+i)%len(in.seeds)]}})
		o.info = res.Info
		if recorded(i) {
			done, op := time.Now(), int64(first+i)
			root := r.tr.Record(name+".request", "bench", due, done.Sub(due), harness.NoSpan, op)
			call := r.tr.Record("featgraph.Batcher.Serve", "serve", called, done.Sub(called), root, op)
			r.tr.Record("serve.queued", "serve.queue", called, o.info.Queued, call, op)
		}
		if h.keep[i] {
			o.out = res.Out
		}
		if h.after != nil {
			h.after(o)
		}
	})
	for i, s := range ph.sent {
		o := &ph.got[i]
		lat := math.Inf(1)
		r.attempted++
		switch {
		case s.Shed:
			o.err = errGeneratorShed
			r.failed++
		case o.err != nil || s.Done-s.Due > lateLimit:
			r.failed++
		default:
			lat = harness.Ms(s.Done - s.Due)
		}
		ph.lat[i] = harness.Timed{Due: s.Due, Latency: lat}
		if r.tr != nil && name == r.primarySpan {
			if recorded(i) {
				r.tracedMs = append(r.tracedMs, lat)
			} else {
				r.controlMs = append(r.controlMs, lat)
			}
		}
	}
	return ph
}

func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		out[i] = l.Latency
	}
	return out
}

// tails is a phase's latency distribution: the summary of all samples (its
// Median is the p50) and the p90, p95 and p99, each the median over
// tailWindow windows of the per-window quantile.
type tails struct {
	all           harness.Summary
	p90, p95, p99 float64
	windows       int
}

func (ph *phase) tails() tails {
	lat := ph.latencies()
	t := tails{all: harness.Summarize(lat)}
	t.p90, _ = harness.WindowedQuantile(ph.lat, tailWindow, 0.90, minBeyond)
	t.p95, _ = harness.WindowedQuantile(ph.lat, tailWindow, 0.95, minBeyond)
	if t.p99, t.windows = harness.WindowedQuantile(ph.lat, tailWindow, 0.99, minBeyond); t.windows == 0 {
		// A smoke-size phase is shorter than one window: take the whole phase,
		// which checks the plumbing and supports no claim about the tail.
		sort.Float64s(lat)
		t.p90, t.p95, t.p99 = harness.Quantile(lat, 0.90), harness.Quantile(lat, 0.95), harness.Quantile(lat, 0.99)
	}
	return t
}

// firstError returns the first request error of the phase, for the report.
func (ph *phase) firstError() error {
	for _, o := range ph.got {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// batchStats derives per-batch means from per-request RunInfo: a request
// that rode in a batch of k requests stands for 1/k of that batch.
func (ph *phase) batchStats(r *Run) {
	var batches, requests, seeds, edges, launches float64
	var queued []float64
	var built, reused int
	for _, o := range ph.got {
		if o.err != nil || o.info.BatchRequests == 0 {
			continue
		}
		w := 1 / float64(o.info.BatchRequests)
		batches += w
		requests++
		seeds += w * float64(o.info.BatchSeeds)
		edges += w * float64(o.info.BlockEdges)
		launches += w * float64(o.info.KernelLaunches)
		queued = append(queued, harness.Ms(o.info.Queued))
		built, reused = max(built, o.info.PlanBuilt), max(reused, o.info.PlanReused)
	}
	sort.Float64s(queued)
	r.setLayer("serve.queued_p50_ms", "ms", harness.Quantile(queued, 0.5))
	r.setLayer("serve.queued_p99_ms", "ms", harness.Quantile(queued, 0.99))
	r.setLayer("serve.batch_requests_mean", "count", requests/batches)
	r.setLayer("serve.batch_seeds_mean", "count", seeds/batches)
	r.setLayer("serve.block_edges_mean", "count", edges/batches)
	r.setLayer("serve.kernel_launches_per_batch", "count", launches/batches)
	r.setLayer("serve.plan_built", "count", float64(built))
	r.setLayer("serve.plan_reused", "count", float64(reused))
	r.setLayer("serve.plan_reuse_ratio", "ratio", float64(reused)/float64(built+reused))
}

// lateP99 is how late the generator sent requests, at its 99th percentile.
func (ph *phase) lateP99() float64 {
	late := make([]float64, len(ph.sent))
	for i, s := range ph.sent {
		late[i] = harness.Ms(s.Sent - s.Due)
	}
	sort.Float64s(late)
	return harness.Quantile(late, 0.99)
}

// shed counts requests refused for load: by the generator's in-flight cap
// or by the batcher's queue.
func (ph *phase) shed() (n int) {
	for _, o := range ph.got {
		if errors.Is(o.err, featgraph.ErrOverloaded) || errors.Is(o.err, errGeneratorShed) {
			n++
		}
	}
	return n
}

var errGeneratorShed = errors.New("shed by the generator: in-flight cap reached")

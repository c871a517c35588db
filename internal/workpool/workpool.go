// Package workpool provides the process-wide persistent worker pool behind
// FeatGraph's kernel execution engine.
//
// The paper's kernels are compiled once and executed hundreds of times per
// training run; spawning fresh goroutines for every (feature tile, graph
// partition) phase of every run is pure overhead the TVM kernels never pay.
// The pool keeps a fixed set of long-lived workers (GOMAXPROCS-1, started
// eagerly on first use) and hands them phases as Jobs: a shared atomic
// cursor over a chunk list that workers drain cooperatively, so a fast
// worker automatically steals load a slow or overloaded one cannot finish —
// the dynamic analogue of the paper's load-balanced scheduling (§IV-A).
//
// Two properties keep the pool safe to share process-wide:
//
//   - The submitter always participates (it runs slot 0 inline), so a Run
//     completes even when every pool worker is busy with other kernels —
//     there is no queueing and no possibility of deadlock.
//   - Work is offered to idle workers with a non-blocking handoff; a busy
//     pool degrades a Run toward inline execution instead of stacking up
//     latency. On a single-CPU host this means phases run inline with zero
//     scheduling overhead rather than churning futile goroutines.
package workpool

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"featgraph/internal/telemetry"
)

// Job is one parallel phase: Body is invoked for every chunk index in
// [0, n) exactly once (unless Stop aborts the phase), by the submitter and
// any pool workers that join. A Job is reusable across phases — Pool.Run
// resets the cursor — but must not be reused concurrently with itself.
type Job struct {
	// Body processes one chunk on one runner. slot identifies the runner
	// within this phase (0 = submitter) and is always < the maxRunners
	// passed to Run, so per-runner scratch can be indexed by it. Body must
	// not panic; callers that execute untrusted work wrap Body with their
	// own recovery (see internal/core's engine).
	Body func(slot, chunk int)
	// Stop optionally reports that the phase should be abandoned
	// (cancellation, a failed sibling chunk). Runners poll it between
	// chunks; remaining chunks are then skipped.
	Stop func() bool
	// Progress, when non-nil, is incremented once per retired chunk by
	// whichever runner executed it — the per-run progress beacon the
	// stall watchdog (internal/admission) scans. Like Body and Stop it
	// may be swapped between phases but not during one.
	Progress *atomic.Uint64

	n      int32
	cursor atomic.Int32
	slots  atomic.Int32
	wg     sync.WaitGroup
	// metrics caches telemetry.Enabled() for the current phase so the
	// per-chunk loop pays a plain branch, not an atomic load, when
	// telemetry is off. Set by Pool.Run.
	metrics bool
}

// run drains chunks on one runner slot until the cursor is exhausted or
// Stop reports abandonment.
func (j *Job) run(slot int) {
	n := j.n
	for {
		if j.Stop != nil && j.Stop() {
			return
		}
		i := j.cursor.Add(1) - 1
		if i >= n {
			return
		}
		j.Body(slot, int(i))
		if j.Progress != nil {
			j.Progress.Add(1)
		}
		if j.metrics {
			mChunks.Add(slot, 1)
		}
	}
}

// Pool is a persistent set of worker goroutines. The zero value is ready to
// use; workers start on first Run. Most callers share Default().
type Pool struct {
	once   sync.Once
	size   int
	offers chan *Job
}

var defaultPool Pool

// Default returns the process-wide shared pool. CPU kernel phases and
// simulated-device launches all draw from it, so total host parallelism
// stays bounded by GOMAXPROCS no matter how many kernels run concurrently.
func Default() *Pool { return &defaultPool }

// ensure starts the workers. They are started eagerly (not grown on
// demand) so the process goroutine count becomes stable after the first
// kernel touches the pool — goroutine-leak detectors in tests rely on that.
func (p *Pool) ensure() {
	p.once.Do(func() {
		p.size = max(runtime.GOMAXPROCS(0)-1, 0)
		p.offers = make(chan *Job)
		for i := 0; i < p.size; i++ {
			go func(i int) {
				// Label the worker so pprof profiles attribute kernel
				// chunk time to the pool rather than anonymous goroutines.
				labels := pprof.Labels("pool", "featgraph-workpool", "worker", strconv.Itoa(i))
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), labels))
				p.worker()
			}(i)
		}
		mWorkers.Set(int64(p.size))
	})
}

// Size returns the number of pool workers (GOMAXPROCS-1 at first use).
func (p *Pool) Size() int {
	p.ensure()
	return p.size
}

// MaxRunners returns the most runners a single Run can use: every pool
// worker plus the submitter. Per-slot scratch sized to MaxRunners is safe
// for any Run regardless of its maxRunners argument.
func (p *Pool) MaxRunners() int { return p.Size() + 1 }

func (p *Pool) worker() {
	for j := range p.offers {
		slot := int(j.slots.Add(1) - 1)
		j.run(slot)
		j.wg.Done()
	}
}

// Rows runs fn over contiguous spans covering rows [0, n) on the default
// pool with at most threads runners: about four spans per runner so a slow
// runner's share is stolen, none shorter than minSpan rows. When that
// leaves one span it runs inline as fn(0, n). fn must touch only rows
// [lo, hi) and must not panic; a caller whose rows are independent gets
// results that do not depend on which runner took which span.
func Rows(n, minSpan, threads int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = max(threads, 1)
	span := max((n+4*threads-1)/(4*threads), minSpan, 1)
	chunks := (n + span - 1) / span
	if threads == 1 || chunks == 1 {
		fn(0, n)
		return
	}
	job := Job{Body: func(_, ci int) {
		lo := ci * span
		fn(lo, min(lo+span, n))
	}}
	Default().Run(&job, chunks, threads)
}

// Run executes j over chunks [0, n) using at most maxRunners runners: the
// calling goroutine (slot 0) plus up to maxRunners-1 currently idle pool
// workers. It returns once every chunk is processed or abandoned and all
// joined workers have detached from j; j's fields may be mutated for the
// next phase immediately after Run returns. Run never blocks waiting for a
// busy pool — unavailable helpers simply mean the submitter processes more
// chunks itself. Run performs no allocation.
func (p *Pool) Run(j *Job, n, maxRunners int) {
	p.ensure()
	j.n = int32(n)
	j.cursor.Store(0)
	j.slots.Store(1)
	j.metrics = telemetry.Enabled()
	if j.metrics {
		mPhases.Inc()
		mActive.Add(1)
	}
	helpers := max(min(maxRunners, n)-1, 0)
	joined := 0
	for i := 0; i < helpers; i++ {
		j.wg.Add(1)
		ok := false
		select {
		case p.offers <- j:
			ok = true
		default:
		}
		if !ok {
			// No worker is idle right now; later offers would also fail.
			j.wg.Done()
			break
		}
		joined++
	}
	j.run(0)
	j.wg.Wait()
	if j.metrics {
		mHelpersRequested.Add(uint64(helpers))
		mHelpersJoined.Add(uint64(joined))
		mActive.Add(-1)
	}
}

// The persistent execution engine: pooled, reusable per-run state driving
// kernel phases through the shared workpool instead of spawning goroutines
// per run.
//
// A built kernel owns a small freelist of run states. Each state bundles
// everything one execution needs — run control, per-runner scratch, and a
// workpool.Job whose Body/Stop closures are created once — so a steady-state
// RunCtx performs no heap allocation: epoch 2..N of a training loop touches
// only memory that epoch 1 already allocated. Concurrent Runs of the same
// kernel each draw (or transiently create) their own state, so outputs never
// interleave.
//
// Phases dispatch over precomputed chunk lists (see chunks.go): SpMM row
// phases use edge-balanced chunks so skewed degree distributions cannot
// starve the pool, SDDMM edge phases and aggregation finalization use
// uniform chunks. Panic isolation, cancellation polling, and faultinject
// sites keep the exact semantics of the legacy scheduler (core.parallelFor,
// still available via Options.LegacySched): a panicking chunk becomes a
// *KernelError attributing the failing runner slot and schedule position,
// and every runner polls the run control between cancelChunk rows/edges.
package core

import (
	"context"
	"sync/atomic"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/codegen"
	"featgraph/internal/faultinject"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
	"featgraph/internal/tensor"
	"featgraph/internal/workpool"
)

// runStatePoolCap bounds how many idle run states a kernel retains. Two
// covers the common ping-pong of forward/backward kernels; additional
// concurrent Runs fall back to transient states.
const runStatePoolCap = 2

// guard wraps a chunk body with the engine's panic isolation: a panicking
// chunk is recorded on rc as a *KernelError attributing the runner slot and
// the schedule position site points at. site is read at recovery time, which
// is safe because phases are barriers — site only changes between phases.
func guard(rc *runControl, site *workerSite, body func(slot, chunk int)) func(slot, chunk int) {
	return func(slot, chunk int) {
		defer func() {
			if r := recover(); r != nil {
				if telemetry.Enabled() {
					mRecoveredPanics.Inc()
				}
				rc.fail(&KernelError{
					Kernel: site.kernel, Target: site.target,
					Worker: slot, Tile: site.tile, Part: site.part, Value: r,
				})
			}
		}()
		body(slot, chunk)
	}
}

// scratchSlots returns how many per-runner scratch slots a CPU kernel with
// the given thread option needs: a phase never uses more runners than the
// requested threads, nor more than the pool can field.
func scratchSlots(numThreads int) int {
	return min(max(numThreads, 1), workpool.Default().MaxRunners())
}

// --- SpMM ---

// spmmRunState is one execution's worth of reusable SpMM state.
type spmmRunState struct {
	k    *SpMMKernel
	rc   runControl
	job  workpool.Job
	site workerSite

	// Per-phase dispatch parameters, set between pool runs (phases are
	// barriers, so runners never observe a mutation mid-phase).
	out      *tensor.Tensor
	part     *sparse.CSR
	tile     partition.Range
	chunks   []partition.Range
	finalize bool

	// Per-run accounting, reset by runCPUEngine and folded into RunStats:
	// edge traversals performed and chunks executed by helper slots
	// (stolen from the submitter). Atomic because chunks retire on
	// concurrent pool runners; two uncontended-in-practice adds per chunk,
	// cheap enough to populate RunStats unconditionally.
	edges  atomic.Uint64
	stolen atomic.Uint64

	// beacon is the progress counter the stall watchdog scans; the pool
	// ticks it once per retired chunk via job.Progress.
	beacon admission.Beacon

	scratch []*spmmScratch // indexed by runner slot
}

func (k *SpMMKernel) newRunState() *spmmRunState {
	st := &spmmRunState{k: k, site: workerSite{kernel: "spmm", target: CPU}}
	st.scratch = make([]*spmmScratch, scratchSlots(k.opts.NumThreads))
	for w := range st.scratch {
		st.scratch[w] = &spmmScratch{
			env: k.compiled.NewEnv(),
			msg: make([]float32, k.maxTile),
			tmp: make([]float32, k.tmpLen),
		}
	}
	st.job.Body = guard(&st.rc, &st.site, st.runChunk)
	st.job.Stop = st.rc.stop
	st.job.Progress = st.beacon.Counter()
	return st
}

func (k *SpMMKernel) getRunState() *spmmRunState {
	select {
	case st := <-k.states:
		return st
	default:
		return k.newRunState()
	}
}

func (k *SpMMKernel) putRunState(st *spmmRunState) {
	st.out = nil
	st.part = nil
	st.chunks = nil
	select {
	case k.states <- st:
	default:
	}
}

// runChunk processes one chunk of the current phase: a row range of the
// current (tile, partition) pass, or of the finalization pass.
func (st *spmmRunState) runChunk(slot, ci int) {
	r := st.chunks[ci]
	if slot != 0 {
		st.stolen.Add(1)
	}
	if st.finalize {
		finalizeAgg(st.k.agg, st.out, st.k.adj, r.Lo, r.Hi)
		return
	}
	st.edges.Add(uint64(st.part.RowPtr[r.Hi] - st.part.RowPtr[r.Lo]))
	faultinject.Hit(faultinject.SiteSpMMCPUWorker, st.rc.done, st.rc.quit)
	for lo := r.Lo; lo < r.Hi; lo += cancelChunk {
		if st.rc.stop() {
			return
		}
		st.k.cpuRows(st.out, st.part, st.tile, st.scratch[slot], lo, min(lo+cancelChunk, r.Hi))
	}
	ostride := st.out.RowStride()
	odata := st.out.Data()
	faultinject.CorruptFloats(faultinject.SiteSpMMCPUOutput, odata[r.Lo*ostride:r.Hi*ostride])
}

// runCPUEngine executes the tiled, partitioned CPU schedule on the
// persistent engine: the same loop structure as the legacy scheduler
// (feature tiles outermost, partitions next, rows innermost) but with rows
// split into edge-balanced chunks drained from the shared pool, and zero
// per-run allocation.
func (k *SpMMKernel) runCPUEngine(ctx context.Context, out *tensor.Tensor, stats *RunStats) error {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := k.getRunState()
	defer k.putRunState(st)
	if gov := admission.Resolve(k.opts.Admission); gov.WatchdogEnabled() {
		wctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		defer gov.Watch(cancel, &st.beacon, "spmm/cpu-engine")()
		ctx = wctx
	}
	st.rc.reset(ctx)
	st.out = out
	st.edges.Store(0)
	st.stolen.Store(0)
	tracing := telemetry.TraceActive()
	if !k.partial {
		out.Fill(k.agg.identity())
	}

	var phaseStart time.Time
	for ti, tile := range k.tiles {
		for pi, part := range k.parts {
			if st.rc.stop() {
				return stallCause(ctx, st.rc.verdict())
			}
			st.tile, st.part, st.chunks, st.finalize = tile, part, k.chunks[pi], false
			st.site.tile, st.site.part = ti, pi
			if tracing {
				phaseStart = time.Now()
			}
			pool.Run(&st.job, len(st.chunks), threads)
			if tracing {
				telemetry.RecordSpan("spmm.phase", 0, phaseStart, time.Since(phaseStart), "tile", int64(ti), "part", int64(pi), 2)
			}
		}
	}
	if !st.rc.stop() && !k.partial {
		st.finalize = true
		st.chunks = k.finChunks
		st.site.tile, st.site.part = -1, -1
		if tracing {
			phaseStart = time.Now()
		}
		pool.Run(&st.job, len(k.finChunks), threads)
		if tracing {
			telemetry.RecordSpan("spmm.finalize", 0, phaseStart, time.Since(phaseStart), "chunks", int64(len(k.finChunks)), "", 0, 1)
		}
	}
	stats.EdgesProcessed = st.edges.Load()
	stats.ChunksStolen = st.stolen.Load()
	return stallCause(ctx, st.rc.verdict())
}

// --- SDDMM ---

// sddmmRunState is one execution's worth of reusable SDDMM state.
type sddmmRunState struct {
	k    *SDDMMKernel
	rc   runControl
	job  workpool.Job
	site workerSite

	out    *tensor.Tensor
	chunks []partition.Range
	tile   partition.Range // active tile: reduce axis (dot) or output axis
	dot    bool            // dot fast path vs generic compiled path
	acc    bool            // dot: accumulate onto an earlier reduce tile

	// Per-run accounting (see spmmRunState).
	edges  atomic.Uint64
	stolen atomic.Uint64

	// beacon is the progress counter the stall watchdog scans (see
	// spmmRunState.beacon).
	beacon admission.Beacon

	envs []*codegen.Env // indexed by runner slot (generic path)
}

func (k *SDDMMKernel) newRunState() *sddmmRunState {
	st := &sddmmRunState{k: k, site: workerSite{kernel: "sddmm", target: CPU, part: -1}}
	st.envs = make([]*codegen.Env, scratchSlots(k.opts.NumThreads))
	for w := range st.envs {
		st.envs[w] = k.compiled.NewEnv()
	}
	st.job.Body = guard(&st.rc, &st.site, st.runChunk)
	st.job.Stop = st.rc.stop
	st.job.Progress = st.beacon.Counter()
	return st
}

func (k *SDDMMKernel) getRunState() *sddmmRunState {
	select {
	case st := <-k.states:
		return st
	default:
		return k.newRunState()
	}
}

func (k *SDDMMKernel) putRunState(st *sddmmRunState) {
	st.out = nil
	st.chunks = nil
	select {
	case k.states <- st:
	default:
	}
}

// runChunk processes one edge chunk of the current phase.
func (st *sddmmRunState) runChunk(slot, ci int) {
	r := st.chunks[ci]
	if slot != 0 {
		st.stolen.Add(1)
	}
	st.edges.Add(uint64(r.Hi - r.Lo))
	st.k.cpuEdges(&st.rc, st.envs[slot], st.out, r.Lo, r.Hi, st.tile, st.dot, st.acc)
}

// runCPUEngine executes the SDDMM CPU schedule on the persistent engine:
// one pooled phase per tile over uniform edge chunks of the traversal order
// (Hilbert or row-major), with zero per-run allocation.
func (k *SDDMMKernel) runCPUEngine(ctx context.Context, out *tensor.Tensor, stats *RunStats) error {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := k.getRunState()
	defer k.putRunState(st)
	if gov := admission.Resolve(k.opts.Admission); gov.WatchdogEnabled() {
		wctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		defer gov.Watch(cancel, &st.beacon, "sddmm/cpu-engine")()
		ctx = wctx
	}
	st.rc.reset(ctx)
	st.out = out
	st.chunks = k.edgeChunks
	st.edges.Store(0)
	st.stolen.Store(0)
	tracing := telemetry.TraceActive()

	st.dot = k.match.Pattern == codegen.DotSrcDst
	tiles := k.tiles
	if st.dot {
		tiles = k.redTiles
	}
	var phaseStart time.Time
	for ti, tile := range tiles {
		if st.rc.stop() {
			return stallCause(ctx, st.rc.verdict())
		}
		st.tile, st.acc = tile, ti > 0
		st.site.tile = ti
		if tracing {
			phaseStart = time.Now()
		}
		pool.Run(&st.job, len(st.chunks), threads)
		if tracing {
			telemetry.RecordSpan("sddmm.phase", 0, phaseStart, time.Since(phaseStart), "tile", int64(ti), "", 0, 1)
		}
	}
	stats.EdgesProcessed = st.edges.Load()
	stats.ChunksStolen = st.stolen.Load()
	return stallCause(ctx, st.rc.verdict())
}

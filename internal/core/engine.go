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
// uniform chunks. A panicking chunk becomes a *KernelError attributing the
// failing runner slot and schedule position, and every runner polls the run
// control between cancelChunk rows/edges.
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

// engineState is the head every pooled CPU run state embeds: run control,
// the reusable pool job, and the per-run accounting folded into RunStats.
type engineState struct {
	rc   runControl
	job  workpool.Job
	site workerSite
	out  *tensor.Tensor

	// Edge traversals performed and chunks executed by helper slots (stolen
	// from the submitter). Atomic because chunks retire on concurrent pool
	// runners; two uncontended-in-practice adds per chunk, cheap enough to
	// populate RunStats unconditionally.
	edges  atomic.Uint64
	stolen atomic.Uint64

	// beacon is the progress counter the stall watchdog scans; the pool
	// ticks it once per retired chunk via job.Progress.
	beacon admission.Beacon
}

// arm creates the job's closures once, so runs allocate nothing. body runs
// under the engine's panic isolation: a panicking chunk is recorded on rc as
// a *KernelError attributing the runner slot and the schedule position site
// points at. site is read at recovery time, which is safe because phases are
// barriers — site only changes between phases.
func (e *engineState) arm(site workerSite, body func(slot, chunk int)) {
	e.site = site
	e.job.Body = func(slot, chunk int) {
		defer func() {
			if r := recover(); r != nil {
				if telemetry.Enabled() {
					mRecoveredPanics.Inc()
				}
				e.rc.fail(&KernelError{
					Kernel: e.site.kernel, Target: e.site.target,
					Worker: slot, Tile: e.site.tile, Part: e.site.part, Value: r,
				})
			}
		}()
		body(slot, chunk)
	}
	e.job.Stop = e.rc.stop
	e.job.Progress = e.beacon.Counter()
}

// begin rearms e for one execution into out, under gov's stall watchdog when
// it has one. The caller defers the returned watch's end and finishes with
// the returned context.
func (e *engineState) begin(ctx context.Context, gov *admission.Governor, site string, out *tensor.Tensor) (context.Context, watch) {
	ctx, w := startWatch(ctx, gov, &e.beacon, site)
	e.rc.reset(ctx)
	e.out = out
	e.edges.Store(0)
	e.stolen.Store(0)
	return ctx, w
}

// finish returns the run's accounting and its verdict.
func (e *engineState) finish(ctx context.Context) (RunStats, error) {
	e.out = nil
	return RunStats{EdgesProcessed: e.edges.Load(), ChunksStolen: e.stolen.Load()}, stallCause(ctx, e.rc.verdict())
}

// getState draws a run (or GPU launch) state from a kernel's freelist, or
// builds a transient one with newState when concurrent Runs have drained it.
func getState[S any](pool chan *S, newState func() *S) *S {
	select {
	case st := <-pool:
		return st
	default:
		return newState()
	}
}

// putState returns st to the freelist, dropping it when the list is full.
func putState[S any](pool chan *S, st *S) {
	select {
	case pool <- st:
	default:
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
	engineState
	k *SpMMKernel

	// Per-phase dispatch parameters, set between pool runs (phases are
	// barriers, so runners never observe a mutation mid-phase).
	part     *sparse.CSR
	tile     partition.Range
	chunks   []partition.Range
	finalize bool

	scratch []*spmmScratch // indexed by runner slot
}

func (k *SpMMKernel) newRunState() *spmmRunState {
	st := &spmmRunState{k: k}
	st.scratch = make([]*spmmScratch, scratchSlots(k.opts.NumThreads))
	for w := range st.scratch {
		st.scratch[w] = &spmmScratch{
			env: k.compiled.NewEnv(),
			msg: make([]float32, k.maxTile),
			tmp: make([]float32, k.tmpLen),
		}
	}
	st.arm(workerSite{kernel: "spmm", target: CPU}, st.runChunk)
	return st
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

// runCPU executes the tiled, partitioned, multi-threaded CPU schedule:
// feature tiles outermost (each tile re-traverses the topology, the
// trade-off of Figure 6), graph partitions next (all threads cooperate on
// one partition at a time, §IV-A), rows innermost — split into
// edge-balanced chunks drained from the shared pool, with zero per-run
// allocation.
func (k *SpMMKernel) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := getState(k.states, k.newRunState)
	defer putState(k.states, st)
	ctx, w := st.begin(ctx, k.opts.Admission, "spmm/cpu-engine", out)
	defer w.end()
	tracing := telemetry.TraceActive()
	if !k.partial {
		out.Fill(k.agg.identity())
	}

	var phaseStart time.Time
	for ti, tile := range k.tiles {
		for pi, part := range k.parts {
			if st.rc.stop() {
				return st.finish(ctx)
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
	return st.finish(ctx)
}

// --- SDDMM ---

// sddmmRunState is one execution's worth of reusable SDDMM state.
type sddmmRunState struct {
	engineState
	k *SDDMMKernel

	chunks []partition.Range
	tile   partition.Range // active tile: reduce axis (dot) or output axis
	dot    bool            // dot fast path vs generic compiled path
	acc    bool            // dot: accumulate onto an earlier reduce tile

	envs []*codegen.Env // indexed by runner slot (generic path)
}

func (k *SDDMMKernel) newRunState() *sddmmRunState {
	st := &sddmmRunState{k: k}
	st.envs = make([]*codegen.Env, scratchSlots(k.opts.NumThreads))
	for w := range st.envs {
		st.envs[w] = k.compiled.NewEnv()
	}
	st.arm(workerSite{kernel: "sddmm", target: CPU, part: -1}, st.runChunk)
	return st
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

// runCPU executes the SDDMM CPU schedule on the persistent engine: one
// pooled phase per tile over uniform edge chunks of the traversal order
// (Hilbert or row-major), with zero per-run allocation.
func (k *SDDMMKernel) runCPU(ctx context.Context, out *tensor.Tensor) (RunStats, error) {
	threads := max(k.opts.NumThreads, 1)
	pool := workpool.Default()
	st := getState(k.states, k.newRunState)
	defer putState(k.states, st)
	ctx, w := st.begin(ctx, k.opts.Admission, "sddmm/cpu-engine", out)
	defer w.end()
	st.chunks = k.edgeChunks
	tracing := telemetry.TraceActive()

	st.dot = k.match.Pattern == codegen.DotSrcDst
	tiles := k.tiles
	if st.dot {
		tiles = k.redTiles
	}
	var phaseStart time.Time
	for ti, tile := range tiles {
		if st.rc.stop() {
			break
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
	return st.finish(ctx)
}

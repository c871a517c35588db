// Package cudasim provides a CUDA-like execution model on the host CPU,
// substituting for the NVIDIA GPU used in the paper's evaluation (see
// DESIGN.md, substitution table).
//
// The model keeps the properties that drive the paper's GPU results:
//
//   - A kernel launch is a grid of blocks consumed by a fixed pool of
//     simulated SMs (worker goroutines), so block-level parallelism and
//     load imbalance behave as on a real device.
//   - Each block has a bounded shared memory allocation; exceeding the
//     configured capacity fails the launch, so shared-memory-sized
//     partitioning (hybrid partitioning, §III-C3) is a real constraint.
//   - Threads within a block execute as a sequential SIMT loop
//     (ForEachThread); consecutive thread ids touching consecutive
//     addresses turn into streaming host loops, the analogue of coalesced
//     access, while scattered per-thread work stays scattered.
//   - Global-memory float atomics are real CAS loops, so algorithms that
//     rely on per-edge atomic reductions (Gunrock-style advance) pay the
//     contention cost the paper attributes to them.
//   - Kernels charge simulated cycles for the work they model (Charge,
//     ChargeParallel, ChargeTreeReduce), and a launch reports the makespan
//     over the simulated SMs. The count is the device's measurement; what a
//     kernel computes is its own host code's.
package cudasim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"featgraph/internal/faultinject"
	"featgraph/internal/telemetry"
	"featgraph/internal/workpool"
)

// Config describes a simulated device.
type Config struct {
	// NumSMs is the number of streaming multiprocessors the simulated
	// time model distributes blocks over. 0 means 80 (a Tesla V100, the
	// paper's device). This is independent of how many host goroutines
	// actually execute the blocks.
	NumSMs int
	// SharedMemPerBlock is the shared memory capacity in bytes available
	// to each block. 0 means the CUDA default of 48 KiB.
	SharedMemPerBlock int
}

// DefaultNumSMs is the simulated SM count when unspecified (Tesla V100).
const DefaultNumSMs = 80

// WarpWidth is the effective parallel width of per-thread work in the
// cost model. Blocks may have up to 1024 threads, but memory transactions
// and issue slots serialize at warp granularity, so parallel charges
// divide by at most this width; a loop over d elements spread across
// threads costs ceil(d/32) transaction slots, which is what makes kernel
// time scale with the feature length as on real hardware.
const WarpWidth = 32

// Device is a simulated GPU. Devices are safe for concurrent use; each
// Launch runs to completion before returning (synchronous launches, as the
// paper's kernel benchmarks measure). Launches execute on the process-wide
// persistent worker pool (internal/workpool) and draw reusable launch state
// from a per-device freelist, so steady-state launches allocate nothing.
type Device struct {
	numSMs    int
	sharedCap int
	states    chan *launchState
	launches  atomic.Uint64
}

// DefaultSharedMem is the default per-block shared memory capacity (48 KiB,
// the V100 default; configurable up to 96 KiB on the real device).
const DefaultSharedMem = 48 << 10

// launchStatePoolCap bounds how many idle launch states a device retains;
// additional concurrent launches fall back to transient states.
const launchStatePoolCap = 4

// NewDevice creates a simulated device. The shared worker pool is started
// here (not at first launch) so the process goroutine count is stable by
// the time any launch runs.
func NewDevice(cfg Config) *Device {
	n := cfg.NumSMs
	if n <= 0 {
		n = DefaultNumSMs
	}
	cap := cfg.SharedMemPerBlock
	if cap <= 0 {
		cap = DefaultSharedMem
	}
	d := &Device{numSMs: n, sharedCap: cap, states: make(chan *launchState, launchStatePoolCap)}
	d.states <- d.newLaunchState()
	return d
}

// NumSMs returns the number of concurrently executing blocks.
func (d *Device) NumSMs() int { return d.numSMs }

// SharedMemPerBlock returns the per-block shared memory capacity in bytes.
func (d *Device) SharedMemPerBlock() int { return d.sharedCap }

// SharedFloats returns how many float32 values fit in one block's shared
// memory, the quantity hybrid partitioning sizes its chunks against.
func (d *Device) SharedFloats() int { return d.sharedCap / 4 }

// Describe returns a one-line human-readable description of the simulated
// device, used by differential-testing harnesses to make divergence reports
// self-contained reproducers.
func (d *Device) Describe() string {
	return fmt.Sprintf("cudasim{SMs:%d sharedMem:%dB launches:%d}", d.numSMs, d.sharedCap, d.launches.Load())
}

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Blocks          int
	ThreadsPerBlock int
	// Progress, when non-nil, is ticked once per completed block — the
	// launch's stall-watchdog beacon (see internal/admission).
	Progress *atomic.Uint64
}

// Block is the per-block execution context handed to a kernel.
type Block struct {
	idx        int
	dim        int
	slot       int
	dev        *Device
	sharedUsed int
	scratch    []float32 // reused shared-memory arena across blocks on one SM
	cycles     uint64    // simulated cycles charged by the kernel

	done <-chan struct{} // launch context's cancellation channel
	quit <-chan struct{} // launch-wide first-error abort (faultinject runs only)
	stop *atomic.Bool    // launch-wide stop flag (cancel or first error)
}

// Idx returns the block index within the grid.
func (b *Block) Idx() int { return b.idx }

// Dim returns the number of threads per block.
func (b *Block) Dim() int { return b.dim }

// Slot returns the host runner slot executing this block: a small stable
// index in [0, workpool.Default().MaxRunners()) identifying the simulated
// SM. Blocks on the same slot run sequentially, so kernels can key reusable
// host-side scratch (evaluation environments, staging buffers) by Slot and
// stay allocation-free across blocks and launches.
func (b *Block) Slot() int { return b.slot }

// Cancelled reports whether the launch was cancelled or another block
// failed. Long-running kernels poll it in their outer loops and return
// early; partially written output is undefined, as after a real device
// reset. The check is an atomic load (plus a non-blocking channel poll), so
// per-row polling is affordable.
func (b *Block) Cancelled() bool {
	if b.stop == nil {
		return false
	}
	if b.stop.Load() {
		return true
	}
	if b.done != nil {
		select {
		case <-b.done:
			b.stop.Store(true)
			return true
		default:
		}
	}
	return false
}

// Shared allocates n float32 values of shared memory for this block. The
// allocation is zeroed. If the block's total shared usage would exceed the
// device capacity, the launch fails with a *SharedMemError.
func (b *Block) Shared(n int) []float32 {
	need := b.sharedUsed + 4*n
	if need > b.dev.sharedCap {
		panic(&SharedMemError{Requested: need, Capacity: b.dev.sharedCap, Block: b.idx})
	}
	if b.scratch == nil {
		b.scratch = make([]float32, b.dev.sharedCap/4)
	}
	buf := b.scratch[b.sharedUsed/4 : need/4]
	b.sharedUsed = need
	clear(buf)
	return buf
}

// ForEachThread runs body(tid) for tid in [0, Dim()), modelling the SIMT
// execution of one block's threads. Bodies run sequentially; per-thread
// work that touches consecutive memory becomes a streaming loop, the host
// analogue of coalesced access.
func (b *Block) ForEachThread(body func(tid int)) {
	for t := 0; t < b.dim; t++ {
		body(t)
	}
}

// Simulated-time cost model. Host threads within a block execute
// sequentially, so wall-clock time cannot express the performance effect of
// thread-level parallelism (feature-across-threads layouts, tree
// reductions). Kernels therefore charge simulated cycles for the work they
// do, and Launch reports the makespan: the maximum, over SMs, of the cycles
// of the blocks each SM executed. The per-operation costs are deliberately
// coarse — the paper's GPU comparisons are driven by order-of-magnitude
// algorithmic differences (atomics vs none, serial vs parallel feature
// loops), not by precise latencies.
const (
	// CostGlobal is the per-element cost of a global memory access.
	CostGlobal = 6
	// CostShared is the per-element cost of a shared memory access.
	CostShared = 1
	// CostFLOP is the cost of one arithmetic operation.
	CostFLOP = 1
	// CostAtomic is the cost of one global atomic read-modify-write.
	CostAtomic = 16
	// CostExp is the cost of one exponential, modeling the special
	// function unit's multi-cycle latency (softmax kernels).
	CostExp = 8
)

// Charge adds n simulated cycles of block-serial work.
func (b *Block) Charge(n uint64) { b.cycles += n }

// ChargeParallel charges for elems units of work of the given per-element
// cost spread across the block's threads, at most WarpWidth-wide: the
// block advances by ceil(elems/min(Dim, WarpWidth)) * cost cycles.
func (b *Block) ChargeParallel(elems int, cost uint64) {
	if elems <= 0 {
		return
	}
	width := min(b.dim, WarpWidth)
	iters := uint64((elems + width - 1) / width)
	b.cycles += iters * cost
}

// ChargeTreeReduce charges a log-depth tree reduction of width values
// across the block's threads.
func (b *Block) ChargeTreeReduce(width int) {
	if width <= 1 {
		return
	}
	depth := uint64(0)
	for w := 1; w < width; w <<= 1 {
		depth++
	}
	b.cycles += depth * (CostShared + CostFLOP)
}

// SharedMemError reports a shared memory over-allocation.
type SharedMemError struct {
	Requested int
	Capacity  int
	Block     int
}

func (e *SharedMemError) Error() string {
	return fmt.Sprintf("cudasim: block %d requested %d bytes shared memory, capacity %d", e.Block, e.Requested, e.Capacity)
}

// LaunchStats reports the simulated-time accounting of one launch.
type LaunchStats struct {
	// SimCycles is the makespan in simulated cycles: blocks are assigned
	// greedily (in index order, to the least-loaded SM — the behaviour of
	// the hardware block dispatcher) across the device's NumSMs simulated
	// SMs, and the makespan is the busiest SM's total. Zero if the kernel
	// charged nothing.
	SimCycles uint64
}

// Launch executes kernel for every block in the grid and returns
// simulated-time statistics. Host execution uses up to GOMAXPROCS worker
// goroutines; the simulated-time model is independent of the host worker
// count. Launch returns an error if the configuration is invalid, if a
// block over-allocates shared memory, or if the kernel panics.
func (d *Device) Launch(cfg LaunchConfig, kernel func(b *Block)) (LaunchStats, error) {
	return d.LaunchCtx(context.Background(), cfg, kernel)
}

// launchState is one launch's worth of reusable execution state: a
// workpool.Job whose closures are created once, a per-slot Block array
// (each Block keeps its shared-memory arena across launches), and the cycle
// accounting buffers. Devices keep a freelist of these so steady-state
// launches perform no allocation.
type launchState struct {
	dev    *Device
	job    workpool.Job
	kernel func(b *Block)

	done <-chan struct{}
	// quit releases faultinject stalls in sibling blocks once a block has
	// failed; allocated per launch only while faults are armed, so the
	// steady-state launch path stays allocation-free.
	quit   chan struct{}
	stop   atomic.Bool
	mu     sync.Mutex
	err    error
	blocks []Block  // indexed by runner slot
	cycles []uint64 // per-block charged cycles
	load   []uint64 // per-SM accumulation scratch for makespan
	// metrics caches telemetry.Enabled() for this launch so per-block
	// accounting is a plain branch when telemetry is off.
	metrics bool
}

func (d *Device) newLaunchState() *launchState {
	st := &launchState{dev: d, blocks: make([]Block, workpool.Default().MaxRunners())}
	st.job.Body = st.runSlot
	st.job.Stop = st.stopped
	return st
}

func (d *Device) getLaunchState() *launchState {
	select {
	case st := <-d.states:
		return st
	default:
		return d.newLaunchState()
	}
}

func (d *Device) putLaunchState(st *launchState) {
	st.kernel = nil
	st.done = nil
	st.quit = nil
	st.err = nil
	select {
	case d.states <- st:
	default:
	}
}

// stopped is the job's abandon predicate: runners stop popping blocks once
// the launch is cancelled or a block has failed (the check before popping
// that the per-launch worker loop used to perform).
func (st *launchState) stopped() bool {
	if st.stop.Load() {
		return true
	}
	if st.done != nil {
		select {
		case <-st.done:
			st.stop.Store(true)
			return true
		default:
		}
	}
	return false
}

// fail records a block failure; the first error wins and stops the grid,
// releasing any sibling block stalled at a faultinject site.
func (st *launchState) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
		if st.quit != nil {
			close(st.quit)
			st.quit = nil
		}
	}
	st.mu.Unlock()
	st.stop.Store(true)
}

// runSlot executes grid block i on runner slot, reusing the slot's Block.
func (st *launchState) runSlot(slot, i int) {
	blk := &st.blocks[slot]
	blk.idx = i
	blk.slot = slot
	blk.sharedUsed = 0
	blk.cycles = 0
	if err := runBlock(blk, st.kernel); err != nil {
		st.fail(err)
		return
	}
	st.cycles[i] = blk.cycles
	if st.metrics {
		mBlocks.Add(slot, 1)
	}
}

// LaunchCtx is Launch under a context. Cancellation stops the launch
// promptly: runners stop popping blocks, in-flight blocks observe it via
// Block.Cancelled, and LaunchCtx returns ctx.Err(). A failing block (panic
// or shared-memory over-allocation) likewise stops the remaining grid; the
// first error wins and the other runners drain. On any error the output the
// kernel wrote is undefined.
func (d *Device) LaunchCtx(ctx context.Context, cfg LaunchConfig, kernel func(b *Block)) (LaunchStats, error) {
	d.launches.Add(1)
	metrics := telemetry.Enabled()
	tracing := telemetry.TraceActive()
	var launchStart time.Time
	if tracing {
		launchStart = time.Now()
	}
	if metrics {
		mLaunches.Inc()
	}
	var stats LaunchStats
	if cfg.Blocks <= 0 {
		if metrics {
			mLaunchFailures.Inc()
		}
		return stats, fmt.Errorf("cudasim: launch with %d blocks", cfg.Blocks)
	}
	if cfg.ThreadsPerBlock <= 0 || cfg.ThreadsPerBlock > 1024 {
		if metrics {
			mLaunchFailures.Inc()
		}
		return stats, fmt.Errorf("cudasim: threads per block %d outside [1,1024]", cfg.ThreadsPerBlock)
	}
	if err := ctx.Err(); err != nil {
		if metrics {
			mLaunchFailures.Inc()
		}
		return stats, err
	}
	st := d.getLaunchState()
	defer d.putLaunchState(st)
	st.kernel = kernel
	st.done = ctx.Done()
	st.quit = nil
	if faultinject.Enabled() {
		st.quit = make(chan struct{})
	}
	st.stop.Store(false)
	st.err = nil
	st.metrics = metrics
	st.job.Progress = cfg.Progress
	if cap(st.cycles) < cfg.Blocks {
		st.cycles = make([]uint64, cfg.Blocks)
	}
	st.cycles = st.cycles[:cfg.Blocks]
	for s := range st.blocks {
		b := &st.blocks[s]
		b.dim = cfg.ThreadsPerBlock
		b.dev = d
		b.done = st.done
		b.quit = st.quit
		b.stop = &st.stop
	}

	pool := workpool.Default()
	pool.Run(&st.job, cfg.Blocks, pool.MaxRunners())

	st.mu.Lock()
	err := st.err
	st.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if metrics {
			mLaunchFailures.Inc()
		}
		if tracing {
			telemetry.RecordSpan("gpu.launch", 0, launchStart, time.Since(launchStart), "blocks", int64(cfg.Blocks), "failed", 1, 2)
		}
		return stats, err
	}
	stats.SimCycles = st.makespan(d.numSMs)
	if metrics {
		mSimCycles.Add(stats.SimCycles)
	}
	if tracing {
		telemetry.RecordSpan("gpu.launch", 0, launchStart, time.Since(launchStart), "blocks", int64(cfg.Blocks), "sim_cycles", int64(stats.SimCycles), 2)
	}
	return stats, nil
}

// makespan assigns the launch's block cycle counts to sms simulated SMs
// with greedy least-loaded dispatch and returns the busiest SM's total.
func (st *launchState) makespan(sms int) uint64 {
	if sms < 1 {
		sms = 1
	}
	n := min(sms, len(st.cycles))
	if n == 0 {
		return 0
	}
	if cap(st.load) < n {
		st.load = make([]uint64, n)
	}
	load := st.load[:n]
	clear(load)
	for _, c := range st.cycles {
		minIdx := 0
		for s := 1; s < len(load); s++ {
			if load[s] < load[minIdx] {
				minIdx = s
			}
		}
		load[minIdx] += c
	}
	var max uint64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// KernelPanicError reports a panic raised inside a kernel body. Panics
// cannot be re-raised on the caller's goroutine (blocks run on worker
// goroutines), so Launch surfaces them as errors instead.
type KernelPanicError struct {
	Block int
	Value any
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("cudasim: kernel panic in block %d: %v", e.Block, e.Value)
}

// runBlock executes one block, converting panics — shared-memory
// over-allocation, kernel bugs, and injected faults alike — into errors,
// because the block runs on a worker goroutine where an unrecovered panic
// would kill the process rather than unwind to the caller.
func runBlock(blk *Block, kernel func(b *Block)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if sme, ok := r.(*SharedMemError); ok {
				err = sme
				return
			}
			err = &KernelPanicError{Block: blk.idx, Value: r}
		}
	}()
	faultinject.Hit(faultinject.SiteCudasimBlock, blk.done, blk.quit)
	kernel(blk)
	return nil
}

// AtomicAddFloat32 atomically adds v to buf[i] with a CAS loop, the way a
// pre-Kepler GPU (or a contended modern one) performs float atomics. This
// is the primitive behind Gunrock-style per-edge vertex reductions, and
// its contention cost is part of what the paper measures.
func AtomicAddFloat32(buf []float32, i int, v float32) {
	addr := (*uint32)(unsafe.Pointer(&buf[i]))
	for {
		old := atomic.LoadUint32(addr)
		nw := math.Float32bits(math.Float32frombits(old) + v)
		if atomic.CompareAndSwapUint32(addr, old, nw) {
			return
		}
	}
}

// AtomicMaxFloat32 atomically sets buf[i] = max(buf[i], v).
func AtomicMaxFloat32(buf []float32, i int, v float32) {
	addr := (*uint32)(unsafe.Pointer(&buf[i]))
	for {
		old := atomic.LoadUint32(addr)
		cur := math.Float32frombits(old)
		if cur >= v {
			return
		}
		if atomic.CompareAndSwapUint32(addr, old, math.Float32bits(v)) {
			return
		}
	}
}

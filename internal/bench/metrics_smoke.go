package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"featgraph/internal/autodiff"
	"featgraph/internal/cudasim"
	"featgraph/internal/dgl"
	"featgraph/internal/sparse"
	"featgraph/internal/telemetry"
)

// MetricsSmoke drives a tiny workload through every instrumented layer —
// an engine SpMM (worker pool, run counters, latency histogram), a Hilbert
// SDDMM, a healthy simulated-GPU launch, a GPU kernel whose hybrid staging
// exceeds shared memory (build-stage fallback), and a two-epoch dgl loop
// (plan-cache hits) — then writes the resulting telemetry snapshot to w in
// Prometheus text format. It is the payload of featbench -metrics and the
// CI telemetry-smoke step.
func MetricsSmoke(w io.Writer) error {
	wasOn := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(wasOn)

	const n, d, epochs = 64, 16, 2
	rng := rand.New(rand.NewSource(11))
	adj := sparse.Random(rng, n, n, 4)
	x := randX(12, n, d)

	// Engine SpMM: multi-threaded with graph partitions, so the shared
	// worker pool and chunk counters move.
	spmm, err := buildGCNCPU(adj, x, 4, 4, 0)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke spmm: %w", err)
	}
	if _, err := runSpMM(spmm); err != nil {
		return fmt.Errorf("bench: metrics smoke spmm run: %w", err)
	}

	// SDDMM with Hilbert traversal.
	sddmm, err := buildDotCPU(adj, x, 4, true, 0)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke sddmm: %w", err)
	}
	if _, err := runSDDMM(sddmm); err != nil {
		return fmt.Errorf("bench: metrics smoke sddmm run: %w", err)
	}

	// A healthy simulated-GPU launch: launch and sim-cycle counters.
	gpu, err := buildGCNGPU(cudasim.NewDevice(cudasim.Config{}), adj, x, 0, 0, 0)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke gpu: %w", err)
	}
	if _, err := runSpMM(gpu); err != nil {
		return fmt.Errorf("bench: metrics smoke gpu run: %w", err)
	}

	// Hybrid staging on a 4-byte shared memory device cannot fit any
	// feature tile: the device build degrades and every run reports a
	// build-stage fallback, moving the fallback counter.
	tiny := cudasim.NewDevice(cudasim.Config{SharedMemPerBlock: 4})
	fb, err := buildGCNGPU(tiny, adj, x, 0, 1, 0)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke fallback build: %w", err)
	}
	stats, err := runSpMM(fb)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke fallback run: %w", err)
	}
	if !stats.Fallback {
		return fmt.Errorf("bench: metrics smoke expected a build-stage GPU fallback, got %+v", stats)
	}

	// Two dgl epochs over one op: construction records plan misses, every
	// epoch's Apply records hits.
	g, err := dgl.New(adj, dgl.Config{Backend: dgl.FeatGraph, NumThreads: 2})
	if err != nil {
		return fmt.Errorf("bench: metrics smoke dgl: %w", err)
	}
	op, err := g.NewCopySum(d)
	if err != nil {
		return fmt.Errorf("bench: metrics smoke dgl op: %w", err)
	}
	for e := 0; e < epochs; e++ {
		tp := autodiff.NewTape()
		op.ApplyCtx(context.Background(), tp, tp.Param(x), nil)
	}

	return telemetry.WritePrometheus(w)
}

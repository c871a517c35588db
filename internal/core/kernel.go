package core

import (
	"context"
	"fmt"

	"featgraph/internal/tensor"
)

// Kernel is the unified surface of the two sparse templates. SpMMKernel
// and SDDMMKernel both satisfy it, so harnesses that drive "a built
// kernel" — the correctness oracle, dgl's plan cache, telemetry dumpers —
// need not special-case the template types. The concrete types remain
// exported for callers that need template-specific behaviour.
type Kernel interface {
	// Run executes the kernel into out (Run = RunCtx under
	// context.Background()).
	Run(out *tensor.Tensor) (RunStats, error)
	// RunCtx executes the kernel into out under ctx and the kernel's
	// serving policy; governed.go describes the cancellation,
	// panic-isolation, fallback and retry semantics every kernel shares.
	RunCtx(ctx context.Context, out *tensor.Tensor) (RunStats, error)
	// Describe returns a one-line human-readable description of the built
	// kernel (template, aggregation, target, pattern, shape), making
	// telemetry output and divergence reports self-contained.
	Describe() string
	// LastStats returns the statistics of the most recently completed
	// RunCtx (the zero RunStats before any run). It is safe to call
	// concurrently with runs; under concurrent runs it reports the stats
	// of whichever finished last.
	LastStats() RunStats
	// OutShape returns the required output tensor shape.
	OutShape() (rows, cols int)
	// Pattern returns the recognized UDF pattern ("generic" when the
	// compiled path is used).
	Pattern() string
}

// Compile-time interface checks: both template types are Kernels.
var (
	_ Kernel = (*SpMMKernel)(nil)
	_ Kernel = (*SDDMMKernel)(nil)
	_ Kernel = (*FusedAttnKernel)(nil)
	_ Kernel = (*FusedAttnBwdKernel)(nil)
)

// Describe returns a one-line description of the built SpMM kernel.
func (k *SpMMKernel) Describe() string {
	return fmt.Sprintf("spmm{agg:%s target:%s pattern:%s rows:%d nnz:%d out:%d tiles:%d parts:%d}",
		k.agg, k.opts.Target, k.Pattern(), k.adj.NumRows, k.adj.NNZ(), k.outLen, len(k.tiles), len(k.parts))
}

// Describe returns a one-line description of the built SDDMM kernel.
func (k *SDDMMKernel) Describe() string {
	return fmt.Sprintf("sddmm{target:%s pattern:%s rows:%d nnz:%d out:%d tiles:%d}",
		k.opts.Target, k.Pattern(), k.adj.NumRows, k.adj.NNZ(), k.outLen, len(k.tiles))
}

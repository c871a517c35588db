package dgl

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"featgraph/internal/autodiff"
	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/expr"
	"featgraph/internal/faultinject"
	"featgraph/internal/tensor"
)

// TestFallbackReasonParity pins the degradation contract across the three
// ways a kernel can run: a direct SpMM, a direct SDDMM, and a dgl op
// applied through a cached plan. The same simulated-GPU fault must surface
// the same FallbackReason from all three — the dgl layer forwards the core
// stats verbatim instead of re-deriving (or dropping) the reason.
func TestFallbackReasonParity(t *testing.T) {
	const n, d = 16, 4
	rng := rand.New(rand.NewSource(71))
	adj := testGraph(t, 70, n, 3)
	x := randT(rng, n, d)
	opts := core.Options{Target: core.GPU, Device: cudasim.NewDevice(cudasim.Config{NumSMs: 2})}

	// Build everything before arming the fault: plan compilation must not
	// trip SiteCudasimBlock (it fires per executed block, not per build).
	spmm, err := core.BuildSpMM(adj, expr.CopySrc(n, d), []*tensor.Tensor{x}, core.AggSum, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sddmm, err := core.BuildSDDMM(adj, expr.DotAttention(n, d), []*tensor.Tensor{x}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(adj, Config{Backend: FeatGraph, Target: core.GPU, Device: cudasim.NewDevice(cudasim.Config{NumSMs: 2})})
	if err != nil {
		t.Fatal(err)
	}
	op, err := g.NewCopySum(d)
	if err != nil {
		t.Fatal(err)
	}
	defer g.InvalidatePlans()

	defer faultinject.Arm(faultinject.SiteCudasimBlock,
		&faultinject.Fault{Kind: faultinject.Panic, Value: "parity-fault"})()

	const wantReason = "panicked: parity-fault"
	reasons := make(map[string]string)

	stats, err := spmm.Run(tensor.New(n, d))
	if err != nil {
		t.Fatalf("spmm: fallback should succeed, got %v", err)
	}
	if !stats.Fallback {
		t.Fatal("spmm: GPU fault did not record a fallback")
	}
	reasons["spmm"] = stats.FallbackReason

	stats, err = sddmm.Run(tensor.New(adj.NNZ(), 1))
	if err != nil {
		t.Fatalf("sddmm: fallback should succeed, got %v", err)
	}
	if !stats.Fallback {
		t.Fatal("sddmm: GPU fault did not record a fallback")
	}
	reasons["sddmm"] = stats.FallbackReason

	tp := autodiff.NewTape()
	var info RunInfo
	op.ApplyCtx(context.Background(), tp, tp.Param(x), &info) // forward runs eagerly through the cached plan
	if info.Fallbacks == 0 {
		t.Fatal("dgl: GPU fault did not record a fallback on the RunInfo")
	}
	reasons["dgl"] = info.FallbackReason

	for path, reason := range reasons {
		if !strings.Contains(reason, wantReason) {
			t.Errorf("%s: fallback reason %q does not contain %q", path, reason, wantReason)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"featgraph"
	"featgraph/benchmark/harness"
	"featgraph/internal/core"
	"featgraph/internal/graphgen"
	"featgraph/internal/ligra"
	"featgraph/internal/mkl"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// kernels_inmem: the paper's three kernels plus the fused one, CPU target,
// in memory, steady state. Each kernel is built once per set-up and timed
// over back-to-back passes in its own quarter of the run.

const (
	kernelTol = 1e-4 // max-abs-diff against the references

	attnNegSlope = 0.2 // GAT's LeakyReLU slope, for the fused kernel and its reference
)

type kernelParams struct {
	n, deg     int // graphgen.Skewed(n, deg, 1.4): GCN agg, dot attention, fused attention
	d          int
	mlpN       int // graphgen.TwoTier(mlpN, 0.2, mlpHi, mlpLo): MLP aggregation
	mlpHi      int
	mlpLo      int
	mlpD1      int
	mlpD2      int
	dramCapMiB int // per-array cap of the DRAM-sized bandwidth probe
}

func kernelParamsFor(smoke bool) kernelParams {
	if smoke {
		return kernelParams{n: 1500, deg: 40, d: 64, mlpN: 600, mlpHi: 40, mlpLo: 4, mlpD1: 8, mlpD2: 64, dramCapMiB: 8}
	}
	// The issue's Skewed(24000,260,1.4) costs 3 s to generate and 2.5 s per
	// Hilbert build; three set-ups of it do not fit the driver's time cap.
	// Halving the degree keeps the vertex count, so the feature matrix
	// (6 MiB) still exceeds the 4 MiB L2.
	return kernelParams{n: 24000, deg: 130, d: 64, mlpN: 5000, mlpHi: 200, mlpLo: 10, mlpD1: 8, mlpD2: 64, dramCapMiB: 256}
}

// builtKernel is one timed kernel: its op slot, its size, and how to run it.
type builtKernel struct {
	slot string // op1_ms..op4_ms
	name string // gcn_agg, mlp_agg, dot_attn, fused_attn
	nnz  int
	run  func(context.Context) (core.RunStats, error)
	out  *tensor.Tensor
}

// kernelInputs are generated from the seed, once per run.
type kernelInputs struct {
	adj, adjMLP   *sparse.CSR
	x, xMLP, wMLP *tensor.Tensor
	opts          featgraph.Options
	attn          core.FusedAttnConfig
}

type kernelState struct {
	kernels []*builtKernel
	buildMs map[string]float64
}

func runKernels(r *Run) error {
	p := kernelParamsFor(r.Smoke)
	in := &kernelInputs{
		adj:    graphgen.Skewed(r.rng(1), p.n, p.deg, 1.4),
		adjMLP: graphgen.TwoTier(r.rng(2), p.mlpN, 0.2, p.mlpHi, p.mlpLo),
		x:      uniform(r.rng(3), p.n, p.d),
		xMLP:   uniform(r.rng(4), p.mlpN, p.mlpD1),
		wMLP:   uniform(r.rng(5), p.mlpD1, p.mlpD2),
		opts:   featgraph.NewOptions(featgraph.WithTarget(featgraph.CPU), featgraph.WithNumThreads(r.Threads)),
		attn:   core.FusedAttnConfig{NegSlope: attnNegSlope, Scale: float32(1 / math.Sqrt(float64(p.d)))},
	}
	ctx := context.Background()

	states, err := repeatSetup(r, func() (*kernelState, error) {
		st, err := buildKernels(r, p, in)
		if err != nil {
			return nil, err
		}
		for _, k := range st.kernels { // one warm-up pass each: first-touch faults, run-state pools
			if _, err := k.run(ctx); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", k.name, err)
			}
		}
		return st, nil
	}, nil)
	if err != nil {
		return err
	}

	var gcnStats []core.RunStats
	r.primarySpan = "core.gcn_agg.RunCtx"
	err = r.withTrace(func(traced bool) (float64, error) {
		type section struct {
			ms            series
			stats         []core.RunStats
			allocs, bytes uint64
		}
		secs := make([]section, len(states[0].kernels))
		for i := range secs {
			secs[i].stats = make([]core.RunStats, 0, 4096) // no growth inside the timed passes
		}
		for _, st := range states {
			for i, k := range st.kernels {
				sec := &secs[i]
				var passErr error
				allocs, bytes, _ := memDelta(func() {
					var ms []float64
					ms, passErr = r.passes(r.visit(0.25), 3, "core."+k.name+".RunCtx", "core", func() error {
						s, err := k.run(ctx)
						sec.stats = append(sec.stats, s)
						return err
					})
					sec.ms = append(sec.ms, ms)
				})
				if passErr != nil {
					return 0, passErr
				}
				sec.allocs, sec.bytes = sec.allocs+allocs, sec.bytes+bytes
			}
		}
		for i, k := range states[0].kernels {
			sec := &secs[i]
			if traced {
				// The span around RunCtx and the duration the kernel reports about
				// itself should agree; a gap is time spent in admission or dispatch.
				v := sec.ms.record(r.layer, "core."+k.name+"_run_ms", "ms", "")
				var own []float64
				for _, s := range sec.stats {
					own = append(own, harness.Ms(s.Duration))
				}
				if o := harness.Summarize(own).Q1; math.Abs(v-o) > 0.1*v {
					r.note("%s: spans say %.3f ms but RunStats.Duration lower quartile %.3f ms", k.name, v, o)
				}
				continue
			}
			v := sec.ms.record(r.e2e, k.slot, "ms", k.name+" pass")
			n := float64(len(sec.stats))
			r.setLayer("core."+k.name+"_medges_per_s", "Medges/s", medgesPerS(k.nnz, v))
			if k.name != "mlp_agg" {
				r.setLayer("core."+k.name+"_allocs_per_run", "count", float64(sec.allocs)/n)
			}
			switch k.name {
			case "gcn_agg":
				gcnStats = sec.stats
			case "fused_attn":
				r.setLayer("core.fused_attn_kb_per_run", "KiB", float64(sec.bytes)/1024/n)
			}
		}
		return secs[0].ms.value(), nil
	})
	if err != nil {
		return err
	}

	refs := checkKernels(r, p, states, in)
	if r.trace {
		for _, name := range []string{"spmm", "sddmm", "fused"} {
			var ms []float64
			for _, st := range states {
				ms = append(ms, st.buildMs[name])
			}
			median(r.layer, "core."+name+"_build_ms", "ms", "", ms)
		}
		if err := probeKernels(r, p, refs, in, gcnStats); err != nil {
			return err
		}
	}
	return nil
}

func buildKernels(r *Run, p kernelParams, in *kernelInputs) (*kernelState, error) {
	adj, adjMLP, x, opts := in.adj, in.adjMLP, in.x, in.opts
	g, err := featgraph.GraphFromCSR(adj)
	if err != nil {
		return nil, err
	}
	gMLP, err := featgraph.GraphFromCSR(adjMLP)
	if err != nil {
		return nil, err
	}
	st := &kernelState{buildMs: map[string]float64{}}
	nnz := adj.NNZ()

	var gcn *featgraph.SpMMKernel
	st.buildMs["spmm"] = r.span("featgraph.SpMM", "core", func() {
		gcn, err = featgraph.SpMM(g, featgraph.CopySrc(p.n, p.d), []*featgraph.Tensor{x}, featgraph.AggSum, nil, opts)
	})
	if err != nil {
		return nil, err
	}
	mlp, err := featgraph.SpMM(gMLP, featgraph.MLPMessage(p.mlpN, p.mlpD1, p.mlpD2), []*featgraph.Tensor{in.xMLP, in.wMLP}, featgraph.AggMax, nil, opts)
	if err != nil {
		return nil, err
	}
	var dot *featgraph.SDDMMKernel
	hilbert := opts
	hilbert.Hilbert = true
	st.buildMs["sddmm"] = r.span("featgraph.SDDMM", "core", func() {
		dot, err = featgraph.SDDMM(g, featgraph.DotAttention(p.n, p.d), []*featgraph.Tensor{x}, nil, hilbert)
	})
	if err != nil {
		return nil, err
	}
	var fused *core.FusedAttnKernel
	alpha, deriv := tensor.New(nnz, 1), tensor.New(nnz, 1)
	st.buildMs["fused"] = r.span("core.BuildFusedAttention", "core", func() {
		fused, err = core.BuildFusedAttention(adj, x, x, alpha, deriv, in.attn, opts)
	})
	if err != nil {
		return nil, err
	}

	add := func(slot, name string, nnz int, out *tensor.Tensor, run func(context.Context, *tensor.Tensor) (core.RunStats, error)) {
		st.kernels = append(st.kernels, &builtKernel{slot: slot, name: name, nnz: nnz, out: out,
			run: func(ctx context.Context) (core.RunStats, error) { return run(ctx, out) }})
	}
	add("op1_ms", "gcn_agg", nnz, tensor.New(p.n, p.d), gcn.RunCtx)
	add("op2_ms", "mlp_agg", adjMLP.NNZ(), tensor.New(p.mlpN, p.mlpD2), mlp.RunCtx)
	add("op3_ms", "dot_attn", nnz, tensor.New(nnz, 1), dot.RunCtx)
	add("op4_ms", "fused_attn", nnz, tensor.New(p.n, p.d), fused.RunCtx)
	return st, nil
}

// kernelRefs are the baselines' outputs and how to run them again: they
// are the correctness references first, and the per-layer baselines second.
type kernelRefs struct {
	lg, lgMLP *ligra.Graph
	mklOut    *tensor.Tensor
	scratch   map[string]*tensor.Tensor
}

// checkKernels compares every kernel's last output with an independent
// implementation on identical inputs: MKL-style CSRMM and the Ligra-style
// closures for the paper's three, and the three-pass SDDMM → softmax → SpMM
// composition for the fused kernel.
func checkKernels(r *Run, p kernelParams, states []*kernelState, in *kernelInputs) *kernelRefs {
	adj, adjMLP, x := in.adj, in.adjMLP, in.x
	refs := &kernelRefs{lg: ligra.NewGraph(adj), lgMLP: ligra.NewGraph(adjMLP), mklOut: tensor.New(p.n, p.d), scratch: map[string]*tensor.Tensor{}}
	out := func(st *kernelState, name string) *tensor.Tensor {
		for _, k := range st.kernels {
			if k.name == name {
				return k.out
			}
		}
		panic("no kernel " + name)
	}
	// Every set-up's kernels are checked against the one set of references.
	check := func(name, ref string, want *tensor.Tensor) {
		for i, st := range states {
			r.attempted++
			if diff := out(st, name).MaxAbsDiff(want); !(diff <= kernelTol) {
				r.fail("%s (set-up %d) vs %s: max-abs-diff %.3g exceeds %.0e", name, i, ref, diff, kernelTol)
			}
		}
	}
	if err := mkl.CSRMM(adj, x, refs.mklOut, r.Threads); err != nil {
		r.fail("mkl.CSRMM: %v", err)
	}
	check("gcn_agg", "mkl.CSRMM", refs.mklOut)

	lgcn := tensor.New(p.n, p.d)
	ligra.GCNAggregation(refs.lg, x, lgcn, r.Threads)
	check("gcn_agg", "ligra.GCNAggregation", lgcn)
	lmlp := tensor.New(p.mlpN, p.mlpD2)
	ligra.MLPAggregation(refs.lgMLP, in.xMLP, in.wMLP, lmlp, r.Threads)
	check("mlp_agg", "ligra.MLPAggregation", lmlp)
	ldot := tensor.New(adj.NNZ(), 1)
	ligra.DotAttention(refs.lg, x, ldot, r.Threads)
	check("dot_attn", "ligra.DotAttention", ldot)
	refs.scratch["gcn"], refs.scratch["mlp"], refs.scratch["dot"] = lgcn, lmlp, ldot

	// Three-pass attention: the dot kernel's scores, softmax per destination
	// row in float64 here, then a weighted-sum SpMM.
	alpha := tensor.New(adj.NNZ(), 1)
	scores, ad := out(states[0], "dot_attn").Data(), alpha.Data()
	for v := 0; v < adj.NumRows; v++ {
		lo, hi := adj.RowPtr[v], adj.RowPtr[v+1]
		maxS := math.Inf(-1)
		act := func(pos int32) float64 {
			s := float64(scores[adj.EID[pos]])
			if s < 0 {
				s *= attnNegSlope
			}
			return s * float64(in.attn.Scale)
		}
		for q := lo; q < hi; q++ {
			maxS = math.Max(maxS, act(q))
		}
		sum := 0.0
		for q := lo; q < hi; q++ {
			sum += math.Exp(act(q) - maxS)
		}
		for q := lo; q < hi; q++ {
			ad[adj.EID[q]] = float32(math.Exp(act(q)-maxS) / sum)
		}
	}
	g, err := featgraph.GraphFromCSR(adj)
	if err == nil {
		var wsum *featgraph.SpMMKernel
		wsum, err = featgraph.SpMM(g, featgraph.SrcMulEdgeScalar(p.n, adj.NNZ(), p.d), []*featgraph.Tensor{x, alpha}, featgraph.AggSum, nil, in.opts)
		if err == nil {
			want := tensor.New(p.n, p.d)
			if _, err = wsum.Run(want); err == nil {
				check("fused_attn", "SDDMM→softmax→SpMM", want)
			}
		}
	}
	if err != nil {
		r.fail("three-pass attention reference: %v", err)
	}
	return refs
}

// probeKernels measures what explains the kernel numbers: the baselines on
// identical inputs, single-thread scaling, scheduling counters, and
// computed traffic against a bandwidth probe taken in this same run.
func probeKernels(r *Run, p kernelParams, refs *kernelRefs, in *kernelInputs, gcnStats []core.RunStats) error {
	adj, x := in.adj, in.x
	nnz := adj.NNZ()
	probe := r.slice(0.1)
	base := func(metric, span, layer string, nnz int, f func() error) (float64, error) {
		ms, err := r.passes(probe, 3, span, layer, f)
		if err != nil {
			return 0, err
		}
		v := medgesPerS(nnz, harness.Median(ms))
		r.setLayer(metric, "Medges/s", v)
		return v, nil
	}
	mklRate, err := base("mkl.gcn_agg_medges_per_s", "mkl.CSRMM", "mkl", nnz, func() error { return mkl.CSRMM(adj, x, refs.mklOut, r.Threads) })
	if err != nil {
		return err
	}
	ligraRate, err := base("ligra.gcn_agg_medges_per_s", "ligra.GCNAggregation", "ligra", nnz, func() error {
		ligra.GCNAggregation(refs.lg, x, refs.scratch["gcn"], r.Threads)
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := base("ligra.mlp_agg_medges_per_s", "ligra.MLPAggregation", "ligra", in.adjMLP.NNZ(), func() error {
		ligra.MLPAggregation(refs.lgMLP, in.xMLP, in.wMLP, refs.scratch["mlp"], r.Threads)
		return nil
	}); err != nil {
		return err
	}
	if _, err := base("ligra.dot_attn_medges_per_s", "ligra.DotAttention", "ligra", nnz, func() error {
		ligra.DotAttention(refs.lg, x, refs.scratch["dot"], r.Threads)
		return nil
	}); err != nil {
		return err
	}
	gcnRate := r.layer["core.gcn_agg_medges_per_s"].V
	r.setLayer("core.gcn_agg_over_mkl", "ratio", gcnRate/mklRate)
	r.setLayer("core.gcn_agg_over_ligra", "ratio", gcnRate/ligraRate)

	// The same kernel on one thread. With GOMAXPROCS 1 there is nothing to
	// compare against: the efficiency is 1 by definition and says nothing.
	g, err := featgraph.GraphFromCSR(adj)
	if err != nil {
		return err
	}
	one := in.opts
	one.NumThreads = 1
	k1, err := featgraph.SpMM(g, featgraph.CopySrc(p.n, p.d), []*featgraph.Tensor{x}, featgraph.AggSum, nil, one)
	if err != nil {
		return err
	}
	out1 := tensor.New(p.n, p.d)
	oneRate, err := base("core.gcn_agg_1thread_medges_per_s", "core.gcn_agg_1thread.RunCtx", "core", nnz, func() error {
		_, err := k1.Run(out1)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("core.gcn_agg_scaling_eff", "ratio", gcnRate/(oneRate*float64(r.Threads)))
	if r.Threads == 1 {
		r.note("GOMAXPROCS is 1: core.gcn_agg_scaling_eff is 1 by definition, not a measurement of scaling")
	}

	var stolen, edges float64
	var queued time.Duration
	for _, s := range gcnStats {
		stolen += float64(s.ChunksStolen)
		edges += float64(s.EdgesProcessed)
		queued += s.Queued
	}
	runs := float64(len(gcnStats))
	r.setLayer("core.chunks_stolen_per_run", "count", stolen/runs)
	r.setLayer("core.edges_processed_per_run", "count", edges/runs)
	if queued > 0 { // the default governor admits at once; anything else would explain a slow pass
		r.note("GCN passes waited %v in admission over %d runs", queued, len(gcnStats))
	}

	// Computed traffic (not measured) against measured bandwidth: one triad
	// sized to the GCN kernel's working set, one sized past the last-level
	// cache (capped, because a VM reports the host's whole LLC).
	gcnBytes := harness.SpMMCopySumBytesPerEdge(p.n, nnz, p.d)
	r.setLayer("core.gcn_agg_bytes_per_edge", "B/edge", gcnBytes)
	r.setLayer("core.dot_attn_bytes_per_edge", "B/edge", harness.SDDMMDotBytesPerEdge(p.n, nnz, p.d))
	r.setLayer("core.fused_attn_bytes_per_edge", "B/edge", harness.FusedAttnBytesPerEdge(p.n, nnz, p.d))
	workingSet := 4 * (2*p.n*p.d + 2*nnz + p.n + 1) // x, out, colidx, eid, rowptr
	llc := llcBytes()
	dramElems := min(4*llc, p.dramCapMiB<<20) / 4
	var resident, dram float64
	r.span("membw.triad_resident", "membw", func() { resident = harness.Triad(workingSet/12, r.Threads, 5) })
	r.span("membw.triad_dram", "membw", func() { dram = harness.Triad(dramElems, r.Threads, 2) })
	r.setLayer("membw.triad_resident_gb_per_s", "GB/s", resident)
	r.setLayer("membw.triad_dram_gb_per_s", "GB/s", dram)
	r.setLayer("core.gcn_agg_bw_frac", "ratio", gcnBytes*gcnRate*1e6/1e9/resident)
	r.note("bandwidth probe: resident arrays 3 x %.1f MiB (kernel working set %.1f MiB); dram arrays 3 x %.1f MiB against a reported LLC of %.1f MiB",
		float64(workingSet/3)/(1<<20), float64(workingSet)/(1<<20), float64(4*dramElems)/(1<<20), float64(llc)/(1<<20))
	return nil
}

// llcBytes is the size of the largest cache the kernel reports for cpu0,
// or 32 MiB when it reports none.
func llcBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil {
			best = max(best, n*mult)
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"featgraph"
	"featgraph/internal/core"
	"featgraph/internal/dgl"
	"featgraph/internal/graphgen"
	"featgraph/internal/graphio"
	"featgraph/internal/sparse"
	"featgraph/internal/tensor"
)

// ooc_spmm: GCN aggregation over a sharded graph file. Cold means a
// residency budget far below the decoded size, so the LRU thrashes and
// every pass re-materialises (decodes, CRC-checks, copies) every shard;
// warm means a budget that holds everything, so every pass after the first
// hits. The file stays in the page cache throughout: this measures
// decode/verify/copy and per-shard dispatch, not a disk.

type oocParams struct {
	n, deg, d  int
	shardEdges int   // 0 = graphio.DefaultShardEdges
	coldBudget int64 // bytes; below one decoded shard
}

func oocParamsFor(smoke bool) oocParams {
	if smoke {
		return oocParams{n: 4000, deg: 16, d: 32, shardEdges: 8192, coldBudget: 64 << 10}
	}
	return oocParams{n: 80000, deg: 32, d: 32, coldBudget: 2 << 20}
}

// oocState is one set-up: the file, two handles on it, and three kernels.
type oocState struct {
	dir, path          string
	cold, warm         *graphio.ShardedCSR
	planner            *dgl.ShardPlanCache
	coldK, warmK       *core.ShardedSpMM
	memK               *core.SpMMKernel
	saveMs, openMs     float64
	coldOut, warmOut   *tensor.Tensor
	memOut             *tensor.Tensor
	decodedBytes, file int64
}

func (s *oocState) close() {
	s.planner.Invalidate()
	s.cold.Close() // read-only handles: a close error loses nothing
	s.warm.Close()
	os.RemoveAll(s.dir)
}

func runOOC(r *Run) error {
	p := oocParamsFor(r.Smoke)
	adj := graphgen.Skewed(r.rng(1), p.n, p.deg, 1.4)
	x := uniform(r.rng(2), p.n, p.d)
	nnz := adj.NNZ()
	ctx := context.Background()

	states, err := repeatSetup(r, func() (*oocState, error) { return buildOOC(r, p, adj, x) }, nil)
	defer func() {
		for _, st := range states {
			st.close()
		}
	}()
	if err != nil {
		return err
	}

	run := func(k interface {
		RunCtx(context.Context, *tensor.Tensor) (core.RunStats, error)
	}, out *tensor.Tensor) func() error {
		return func() error { _, err := k.RunCtx(ctx, out); return err }
	}
	// Each timed section visits every set-up — its own file, handles and
	// kernels — once.
	type section struct {
		slot, name, alias, span, layer string
		share                          float64
		f                              func(i int, st *oocState) func() error
		handle                         func(*oocState) *graphio.ShardedCSR // whose cache traffic the section is charged
	}
	whole := make([]*sparse.CSR, len(states))
	sections := []section{
		{"op1_ms", "cold", "cold pass", "core.ShardedSpMM.RunCtx(cold)", "core", 0.5,
			func(_ int, st *oocState) func() error { return run(st.coldK, st.coldOut) }, func(st *oocState) *graphio.ShardedCSR { return st.cold }},
		{"op2_ms", "warm", "warm pass", "core.ShardedSpMM.RunCtx(warm)", "core", 0.25,
			func(_ int, st *oocState) func() error { return run(st.warmK, st.warmOut) }, func(st *oocState) *graphio.ShardedCSR { return st.warm }},
		{"op3_ms", "inmem", "in-memory pass", "core.SpMMKernel.RunCtx", "core", 0.15,
			func(_ int, st *oocState) func() error { return run(st.memK, st.memOut) }, nil},
		{"op4_ms", "load", "load the file into one CSR", "graphio.ShardedCSR.Materialize", "graphio", 0.1,
			func(i int, st *oocState) func() error {
				return func() (err error) {
					whole[i], err = st.cold.Materialize(ctx)
					return err
				}
			}, nil},
	}
	r.primarySpan = sections[0].span
	err = r.withTrace(func(traced bool) (float64, error) {
		ms := make([]series, len(sections))
		traffic := make([]graphio.ShardCacheStats, len(sections))
		for si, st := range states {
			for i, sec := range sections {
				var before graphio.ShardCacheStats
				if sec.handle != nil {
					before = sec.handle(st).Stats()
				}
				got, err := r.passes(r.visit(sec.share), 2, sec.span, sec.layer, sec.f(si, st))
				if err != nil {
					return 0, err
				}
				ms[i] = append(ms[i], got)
				if sec.handle != nil {
					after := sec.handle(st).Stats()
					traffic[i].Loads += after.Loads - before.Loads
					traffic[i].Hits += after.Hits - before.Hits
					traffic[i].Evictions += after.Evictions - before.Evictions
					traffic[i].PeakBytes = max(traffic[i].PeakBytes, after.PeakBytes)
				}
			}
		}
		vals := map[string]float64{}
		for i, sec := range sections {
			vals[sec.name] = ms[i].value()
			if traced {
				continue
			}
			ms[i].record(r.e2e, sec.slot, "ms", sec.alias)
			if sec.handle != nil {
				n, loads, hits := float64(len(ms[i].all())), float64(traffic[i].Loads), float64(traffic[i].Hits)
				r.setLayer("graphio."+sec.name+"_loads_per_pass", "count", loads/n)
				r.setLayer("graphio."+sec.name+"_hit_ratio", "ratio", hits/(hits+loads))
				r.setLayer("graphio."+sec.name+"_evictions_per_pass", "count", float64(traffic[i].Evictions)/n)
				r.setLayer("graphio."+sec.name+"_peak_mb", "MiB", float64(traffic[i].PeakBytes)/(1<<20))
			}
		}
		if traced {
			r.setLayer("core.sharded_run_ms", "ms", vals["cold"])
			r.setLayer("core.inmem_run_ms", "ms", vals["inmem"])
			return vals["cold"], nil
		}
		r.setLayer("graphio.materialize_ms", "ms", vals["load"])
		r.setLayer("core.ooc_cold_medges_per_s", "Medges/s", medgesPerS(nnz, vals["cold"]))
		r.setLayer("core.ooc_warm_medges_per_s", "Medges/s", medgesPerS(nnz, vals["warm"]))
		r.setLayer("core.ooc_cold_over_inmem", "ratio", vals["cold"]/vals["inmem"])
		r.setLayer("core.ooc_warm_over_inmem", "ratio", vals["warm"]/vals["inmem"])
		return vals["cold"], nil
	})
	if err != nil {
		return err
	}

	var saves, opens []float64
	var planHits uint64
	for i, st := range states {
		saves, opens = append(saves, st.saveMs), append(opens, st.openMs)
		planHits += st.planner.Stats().Hits
		r.attempted++
		if !sameCSR(whole[i], adj) {
			r.fail("set-up %d: the graph loaded back from the shard file differs from the graph that was saved", i)
		}
		for name, out := range map[string]*tensor.Tensor{"cold": st.coldOut, "warm": st.warmOut} {
			r.attempted++
			if diff := out.MaxAbsDiff(st.memOut); !(diff <= kernelTol) {
				r.fail("set-up %d: sharded %s output differs from the in-memory kernel: max-abs-diff %.3g exceeds %.0e", i, name, diff, kernelTol)
			}
		}
	}
	if !r.trace {
		return nil
	}
	last := states[len(states)-1]
	r.setLayer("graphio.file_mb", "MiB", float64(last.file)/(1<<20))
	median(r.layer, "graphio.save_sharded_ms", "ms", "", saves)
	median(r.layer, "graphio.open_ms", "ms", "", opens)
	r.setLayer("dgl.shard_plan_hits", "count", float64(planHits))
	return probePins(r, p, last)
}

func buildOOC(r *Run, p oocParams, adj *sparse.CSR, x *tensor.Tensor) (st *oocState, err error) {
	dir, err := r.tempDir("ooc-")
	if err != nil {
		return nil, err
	}
	st = &oocState{dir: dir, path: filepath.Join(dir, "graph.fgshard"), planner: dgl.NewShardPlanCache("fgbench.ooc"),
		decodedBytes: 12*int64(adj.NNZ()) + 4*int64(adj.NumRows+1)}
	defer func() {
		if err != nil {
			if st.cold != nil {
				st.cold.Close()
			}
			if st.warm != nil {
				st.warm.Close()
			}
			os.RemoveAll(dir)
		}
	}()
	st.saveMs = r.span("graphio.SaveSharded", "graphio", func() { err = graphio.SaveSharded(st.path, adj, p.shardEdges) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(st.path)
	if err != nil {
		return nil, err
	}
	st.file = fi.Size()
	st.openMs = r.span("graphio.OpenSharded", "graphio", func() {
		st.cold, err = graphio.OpenSharded(st.path, graphio.ShardedOptions{BudgetBytes: p.coldBudget})
	})
	if err != nil {
		return nil, err
	}
	if st.warm, err = graphio.OpenSharded(st.path, graphio.ShardedOptions{BudgetBytes: 2 * st.decodedBytes}); err != nil {
		return nil, err
	}
	udf := featgraph.CopySrc(adj.NumCols, p.d)
	opts := core.Options{Target: core.CPU, NumThreads: r.Threads}
	in := []*tensor.Tensor{x}
	if st.coldK, err = core.BuildShardedSpMM(st.cold, udf, in, core.AggSum, nil, opts, st.planner); err != nil {
		return nil, err
	}
	if st.warmK, err = core.BuildShardedSpMM(st.warm, udf, in, core.AggSum, nil, opts, st.planner); err != nil {
		return nil, err
	}
	if st.memK, err = core.BuildSpMM(adj, udf, in, core.AggSum, nil, opts); err != nil {
		return nil, err
	}
	st.coldOut, st.warmOut, st.memOut = tensor.New(adj.NumRows, p.d), tensor.New(adj.NumRows, p.d), tensor.New(adj.NumRows, p.d)
	// One pass each: the warm handle's first pass is the one that loads.
	ctx := context.Background()
	if _, err = st.coldK.RunCtx(ctx, st.coldOut); err != nil {
		return nil, fmt.Errorf("warm-up cold pass: %w", err)
	}
	if _, err = st.warmK.RunCtx(ctx, st.warmOut); err != nil {
		return nil, fmt.Errorf("warm-up warm pass: %w", err)
	}
	if _, err = st.memK.RunCtx(ctx, st.memOut); err != nil {
		return nil, fmt.Errorf("warm-up in-memory pass: %w", err)
	}
	return st, nil
}

// probePins materialises every shard of a cold handle, one by one, with no
// kernel in between: what a cold pass pays graphio before core does any work.
func probePins(r *Run, p oocParams, st *oocState) error {
	h, err := graphio.OpenSharded(st.path, graphio.ShardedOptions{BudgetBytes: p.coldBudget})
	if err != nil {
		return err
	}
	defer h.Close()
	ctx := context.Background()
	var pinMs []float64
	total := 0.0
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < h.NumShards(); i++ {
			var release func()
			ms := r.span("graphio.ShardedCSR.Pin", "graphio", func() { _, release, err = h.Pin(ctx, i) })
			if err != nil {
				return err
			}
			release()
			pinMs = append(pinMs, ms)
			total += ms
		}
	}
	median(r.layer, "graphio.pin_ms_per_shard", "ms", "", pinMs)
	r.setLayer("graphio.pin_mb_per_s", "MiB/s", 5*float64(st.decodedBytes)/(1<<20)/(total/1e3))
	return nil
}

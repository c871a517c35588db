package main

import (
	"encoding/json"

	"featgraph/benchmark/harness"
)

// The benchmark's contract with BENCHMARK.json: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json is this table printed by -describe; a test fails
// when the two differ.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*Run) error
	// bounds are the regression bounds of the end-to-end metrics on this
	// workload, in the order of endToEnd: what -selfcheck enforces and what a
	// comparison of two commits on this workload should apply.
	bounds [6]float64
}

// The driver's contract has every workload report every end-to-end metric
// ("with --trace 0 the metrics are every end_to_end metric") under one
// name, unit, direction and bound, none of them ever 0. Issue 12's fourteen
// names each belong to one or two workloads, so they cannot be end-to-end
// metrics under that contract; instead there are four op slots, all times in
// milliseconds, lower is better, whose meaning on each workload README.md
// tabulates, and the issue's names are printed beside them and kept as
// per-layer metrics.
//
// A slot's bound in BENCHMARK.json has to hold on its noisiest workload, and
// would let a 20% regression of a quiet one pass. So each workload carries
// its own bounds, fixed by the issue's rule (harness.BoundFor: 0.10, widened
// to twice the A/A spread rounded up to 0.05, at most 0.25) from the A/A
// runs recorded in README.md, and BENCHMARK.json gets the largest per
// metric; setup_s gets the contract's maximum, as the contract asks.
//
//	op1_ms op2_ms op3_ms op4_ms peak_rss_mb setup_s
var workloads = []workloadSpec{
	{"kernels_inmem", "the paper's three kernels plus fused attention, in memory: core+codegen+workpool do all the work, serve/delta/graphio/dgl none", runKernels,
		[6]float64{0.25, 0.25, 0.20, 0.25, 0.15, 0.20}},
	{"train_fullgraph", "GCN and GAT epochs through dgl+nn+autodiff+tensor: forward and backward kernels via the plan cache, interleaved with dense matmul and tape allocation", runTrain,
		[6]float64{0.20, 0.20, 0.20, 0.25, 0.15, 0.25}},
	{"serve_static", "micro-batched serving on a fixed graph, closed loop then open loop at 12000 and 4000 req/s: serve+sample+induced blocks+plan pool dominate, kernels run on tiny blocks", runServeStatic,
		[6]float64{0.20, 0.25, 0.25, 0.25, 0.15, 0.10}},
	{"serve_mutating", "the same serving at 4000 req/s while a writer commits durable edge deltas every 10 ms: per-version samplers, plan invalidation, snapshot reclaim and compaction contend with reads", runServeMutating,
		[6]float64{0.25, 0.25, 0.25, 0.25, 0.15, 0.10}},
	{"ooc_spmm", "sharded SpMM from a page-cached file under a 2 MiB budget (every pass re-materialises every shard), under an ample budget, and in memory: graphio decode+CRC+copy is the cold path only", runOOC,
		[6]float64{0.25, 0.25, 0.20, 0.25, 0.15, 0.25}},
}

// metricSpec is one metric of BENCHMARK.json. owner names the workload whose
// layers a per-layer metric describes; see README.md for how the other
// workloads report it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	owner  string
}

var endToEnd = []metricSpec{
	{Name: "op1_ms", Unit: "ms", Better: "lower"},
	{Name: "op2_ms", Unit: "ms", Better: "lower"},
	{Name: "op3_ms", Unit: "ms", Better: "lower"},
	{Name: "op4_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// driverBound is the bound BENCHMARK.json gives end-to-end metric i: the
// largest any workload needs.
func driverBound(i int) float64 {
	if endToEnd[i].Name == "setup_s" {
		return harness.MaxBound
	}
	b := 0.0
	for _, w := range workloads {
		b = max(b, w.bounds[i])
	}
	return b
}

const (
	kern  = "kernels_inmem"
	train = "train_fullgraph"
	sstat = "serve_static"
	smut  = "serve_mutating"
	ooc   = "ooc_spmm"
)

func lower(name, unit, owner string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "lower", owner: owner}
}

func higher(name, unit, owner string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher", owner: owner}
}

var perLayer = []metricSpec{
	// kernels_inmem: build cost, run time, allocation, scheduling, scaling,
	// computed traffic against measured bandwidth, and the baselines.
	lower("core.spmm_build_ms", "ms", kern),
	lower("core.sddmm_build_ms", "ms", kern),
	lower("core.fused_build_ms", "ms", kern),
	lower("core.gcn_agg_run_ms", "ms", kern),
	lower("core.mlp_agg_run_ms", "ms", kern),
	lower("core.dot_attn_run_ms", "ms", kern),
	lower("core.fused_attn_run_ms", "ms", kern),
	higher("core.gcn_agg_medges_per_s", "Medges/s", kern),
	higher("core.mlp_agg_medges_per_s", "Medges/s", kern),
	higher("core.dot_attn_medges_per_s", "Medges/s", kern),
	higher("core.fused_attn_medges_per_s", "Medges/s", kern),
	lower("core.gcn_agg_allocs_per_run", "count", kern),
	lower("core.dot_attn_allocs_per_run", "count", kern),
	lower("core.fused_attn_allocs_per_run", "count", kern),
	lower("core.fused_attn_kb_per_run", "KiB", kern),
	higher("core.chunks_stolen_per_run", "count", kern),
	lower("core.edges_processed_per_run", "count", kern),
	higher("core.gcn_agg_1thread_medges_per_s", "Medges/s", kern),
	higher("core.gcn_agg_scaling_eff", "ratio", kern),
	lower("core.gcn_agg_bytes_per_edge", "B/edge", kern),
	lower("core.dot_attn_bytes_per_edge", "B/edge", kern),
	lower("core.fused_attn_bytes_per_edge", "B/edge", kern),
	higher("membw.triad_resident_gb_per_s", "GB/s", kern),
	higher("membw.triad_dram_gb_per_s", "GB/s", kern),
	higher("core.gcn_agg_bw_frac", "ratio", kern),
	higher("mkl.gcn_agg_medges_per_s", "Medges/s", kern),
	higher("ligra.gcn_agg_medges_per_s", "Medges/s", kern),
	higher("ligra.mlp_agg_medges_per_s", "Medges/s", kern),
	higher("ligra.dot_attn_medges_per_s", "Medges/s", kern),
	higher("core.gcn_agg_over_mkl", "ratio", kern),
	higher("core.gcn_agg_over_ligra", "ratio", kern),

	// train_fullgraph: the forward share, the sparse and dense shares, the
	// plan cache and the allocator.
	lower("nn.gcn_epoch_ms", "ms", train),
	lower("nn.gat_epoch_ms", "ms", train),
	lower("nn.gcn_infer_ms", "ms", train),
	lower("nn.gat_infer_ms", "ms", train),
	lower("dgl.copy_agg_apply_ms", "ms", train),
	lower("dgl.fused_attn_apply_ms", "ms", train),
	lower("dgl.fused_attn_bwd_ms", "ms", train),
	lower("tensor.matmul_ms", "ms", train),
	higher("dgl.plan_hits", "count", train),
	lower("dgl.plan_misses", "count", train),
	lower("dgl.kernel_runs_per_epoch", "count", train),
	lower("train.allocs_per_epoch", "count", train),
	lower("train.mb_per_epoch", "MiB", train),
	lower("train.gc_pause_ms_per_epoch", "ms", train),

	// serve_static: queueing, batching, the plan pool, and one batch's
	// execution split into sample, block extraction, kernel and dense.
	higher("serve.capacity_rps", "req/s", sstat),
	lower("serve.lat_p50_ms", "ms", sstat),
	lower("serve.lat_p95_ms", "ms", sstat),
	lower("serve.lat_p99_ms", "ms", sstat),
	lower("serve.queued_p50_ms", "ms", sstat),
	lower("serve.queued_p99_ms", "ms", sstat),
	higher("serve.batch_requests_mean", "count", sstat),
	higher("serve.batch_seeds_mean", "count", sstat),
	lower("serve.block_edges_mean", "count", sstat),
	lower("serve.kernel_launches_per_batch", "count", sstat),
	lower("serve.plan_built", "count", sstat),
	higher("serve.plan_reused", "count", sstat),
	higher("serve.plan_reuse_ratio", "ratio", sstat),
	lower("serve.exec_ms", "ms", sstat),
	lower("sample.sample_ms", "ms", sstat),
	lower("sparse.induced_block_ms", "ms", sstat),
	lower("core.block_spmm_ms", "ms", sstat),
	lower("tensor.block_dense_ms", "ms", sstat),
	lower("serve.residual_ms", "ms", sstat),
	lower("serve.lat_p50_ms_4k", "ms", sstat),
	lower("serve.lat_p99_ms_4k", "ms", sstat),
	lower("serve.shed_frac", "frac", sstat),
	lower("gen.late_p99_ms", "ms", sstat),

	// serve_mutating: what the writer costs, and what it costs the readers.
	lower("serve.mut_lat_p50_ms", "ms", smut),
	lower("serve.mut_lat_p90_ms", "ms", smut),
	lower("serve.mut_lat_p95_ms", "ms", smut),
	lower("serve.mut_lat_p99_ms", "ms", smut),
	lower("serve.mut_plan_built", "count", smut),
	lower("delta.commit_lat_p50_ms", "ms", smut),
	lower("serve.mut_quiet_p50_ms", "ms", smut),
	lower("delta.visible_p80_ms", "ms", smut),
	lower("delta.visible_mean_ms", "ms", smut),
	lower("delta.commit_mem_us", "us", smut),
	lower("delta.wal_ms", "ms", smut),
	lower("delta.pin_us", "us", smut),
	lower("delta.materialize_ms", "ms", smut),
	lower("delta.version_lag_mean", "count", smut),
	higher("delta.commits_per_s", "1/s", smut),
	lower("delta.compactions", "count", smut),
	lower("sample.new_trusted_ms", "ms", smut),

	// ooc_spmm: the write side, shard materialisation, cache behaviour
	// cold and warm, and dispatch overhead against the in-memory kernel.
	higher("core.ooc_cold_medges_per_s", "Medges/s", ooc),
	higher("core.ooc_warm_medges_per_s", "Medges/s", ooc),
	lower("graphio.save_sharded_ms", "ms", ooc),
	lower("graphio.file_mb", "MiB", ooc),
	lower("graphio.open_ms", "ms", ooc),
	lower("graphio.materialize_ms", "ms", ooc),
	lower("graphio.pin_ms_per_shard", "ms", ooc),
	higher("graphio.pin_mb_per_s", "MiB/s", ooc),
	lower("graphio.cold_loads_per_pass", "count", ooc),
	higher("graphio.cold_hit_ratio", "ratio", ooc),
	lower("graphio.cold_evictions_per_pass", "count", ooc),
	lower("graphio.cold_peak_mb", "MiB", ooc),
	lower("graphio.warm_loads_per_pass", "count", ooc),
	higher("graphio.warm_hit_ratio", "ratio", ooc),
	lower("graphio.warm_evictions_per_pass", "count", ooc),
	lower("graphio.warm_peak_mb", "MiB", ooc),
	lower("core.sharded_run_ms", "ms", ooc),
	lower("core.inmem_run_ms", "ms", ooc),
	lower("core.ooc_cold_over_inmem", "ratio", ooc),
	lower("core.ooc_warm_over_inmem", "ratio", ooc),
	higher("dgl.shard_plan_hits", "count", ooc),
}

// traceOverhead is reported by every workload about itself.
var traceOverhead = metricSpec{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"}

func init() { perLayer = append(perLayer, traceOverhead) }

// describe renders BENCHMARK.json.
func describe() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for i, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, driverBound(i)})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is made of strings and numbers
	}
	return append(out, '\n')
}

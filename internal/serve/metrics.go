package serve

import "featgraph/internal/telemetry"

// Serving metrics follow the repo convention: process-global counters and
// histograms, recorded only when telemetry is enabled (except the latency
// histograms, which the soak report reads for p50/p99 and are therefore
// always observed — Observe is a few atomic adds).
var (
	mServed = telemetry.NewCounter("featgraph_serve_requests_total", `result="served"`,
		"Inference requests completed with a result.")
	mShedQuota = telemetry.NewCounter("featgraph_serve_requests_total", `result="shed_quota"`,
		"Inference requests shed by per-tenant quota.")
	mShedQueue = telemetry.NewCounter("featgraph_serve_requests_total", `result="shed_queue"`,
		"Inference requests shed because the batcher queue was full.")
	mFailed = telemetry.NewCounter("featgraph_serve_requests_total", `result="failed"`,
		"Inference requests failed by batch errors or cancellation.")
	mBatches = telemetry.NewCounter("featgraph_serve_batches_total", "",
		"Merged batches executed.")
	mBatchedRequests = telemetry.NewCounter("featgraph_serve_batched_requests_total", "",
		"Requests summed over executed batches (divide by batches for the mean coalescing factor).")

	// hLatency is submit→result per request; hBatchExec is per merged
	// batch (sample + kernels + dense).
	hLatency = telemetry.NewDurationHistogram("featgraph_serve_request_seconds", "",
		"End-to-end inference request latency (submit to result).")
	hBatchExec = telemetry.NewDurationHistogram("featgraph_serve_batch_seconds", "",
		"Merged batch execution time (sampling, kernels, dense layers).")
)

// Package dgl is a miniature GNN framework in the style of DGL: graphs
// carry feature tensors, models are built from message-passing operations
// that run under the autodiff tape, and — the crux of the paper's Table VI
// — the message-passing backend is switchable:
//
//   - Naive: messages are materialized as |E|×d dense tensors and then
//     segment-reduced, the way DGL executes non-builtin functions on top
//     of a deep learning system (and the way its Minigun backend executes
//     on GPU: per-edge blackbox work plus atomic aggregation).
//   - FeatGraph: message computation is fused into the SpMM/SDDMM
//     templates of internal/core, so no per-edge tensor is ever created.
//
// Both backends implement identical math; integration tests verify losses
// and accuracies match between them, reproducing the paper's §V-E accuracy
// sanity check.
package dgl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"featgraph/internal/admission"
	"featgraph/internal/core"
	"featgraph/internal/cudasim"
	"featgraph/internal/gunrock"
	"featgraph/internal/partition"
	"featgraph/internal/sparse"
)

// Backend selects the message-passing execution strategy.
type Backend int

// Backends.
const (
	// Naive materializes per-edge messages (DGL without FeatGraph).
	Naive Backend = iota
	// FeatGraph fuses UDFs into sparse templates (DGL with FeatGraph).
	FeatGraph
)

func (b Backend) String() string {
	if b == Naive {
		return "naive"
	}
	return "featgraph"
}

// Config selects backend and execution parameters for a Graph.
type Config struct {
	Backend Backend
	Target  core.Target
	// NumThreads is the CPU worker count.
	NumThreads int
	// GraphPartitions is the FeatGraph backend's 1D partition count.
	GraphPartitions int
	// FeatureTileFactor is the FeatGraph backend's FDS split factor
	// (0 = untiled).
	FeatureTileFactor int
	// Device is the simulated GPU for Target == GPU.
	Device *cudasim.Device
	// Admission overrides the process-default governor every kernel run
	// passes through (nil uses admission.Default()).
	Admission *admission.Governor
	// Deadline bounds each kernel run (0 = none); an expired run aborts
	// the epoch with a *AbortError wrapping context.DeadlineExceeded.
	Deadline time.Duration
	// Retries is the per-kernel-run retry budget for transient failures.
	Retries int
}

// Graph wraps a topology with everything message passing needs: the
// adjacency, its transpose (gradients flow along reversed edges), degrees,
// and accumulated execution statistics.
type Graph struct {
	cfg  Config
	adj  *sparse.CSR
	adjT *sparse.CSR

	invDeg []float32 // 1/in-degree per vertex (0 for isolated)

	// Edge-balanced row chunks for dgl-level segment loops (EdgeSoftmax),
	// built once on first use with the engine's chunking policy.
	segOnce   sync.Once
	segChunks []partition.Range

	// Edge-list views for the naive GPU backend, built lazily.
	edgesAdj *gunrock.Graph
	edgesT   *gunrock.Graph

	// Stats for work outside kernel runs, accumulated until ResetStats:
	// naive message materialization, EdgeSoftmax and DenseMatMul. Kernel
	// runs report onto the caller's per-call RunInfo instead, so a
	// simulated-GPU total is g.SimCycles plus the RunInfo's SimCycles.
	// Written by the goroutine applying ops; read them from that goroutine.
	SimCycles uint64 // simulated GPU cycles (Target == GPU)
	MsgBytes  uint64 // bytes of materialized messages (Naive backend)

	hits, misses atomic.Uint64 // see Stats
}

// CacheStats counts the kernel traffic of a graph's ops: Misses one per
// kernel an op constructor compiled, Hits one per kernel an ApplyCtx ran.
// A training loop whose misses stop moving after its ops are built
// compiles nothing inside the loop.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// InvalidateTopology does nothing and returns 0. Ops own their kernels
// (ops.go), so no structure outside an op holds a kernel compiled for
// version ver of a topology, and a dropped op takes its kernels with it.
func InvalidateTopology(ident, ver uint64) int { return 0 }

// Stats returns the graph's kernel counters. It is safe to call while
// other goroutines apply ops on the graph.
func (g *Graph) Stats() CacheStats {
	return CacheStats{Hits: g.hits.Load(), Misses: g.misses.Load()}
}

// New builds a dgl graph. The adjacency is validated and retained.
func New(adj *sparse.CSR, cfg Config) (*Graph, error) {
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("dgl: %w", err)
	}
	if adj.NumRows != adj.NumCols {
		return nil, fmt.Errorf("dgl: graph adjacency must be square, got %dx%d", adj.NumRows, adj.NumCols)
	}
	if cfg.Target == core.GPU && cfg.Device == nil {
		cfg.Device = cudasim.NewDevice(cudasim.Config{})
	}
	g := &Graph{cfg: cfg, adj: adj, adjT: adj.Transpose()}
	g.invDeg = make([]float32, adj.NumRows)
	for v := 0; v < adj.NumRows; v++ {
		if deg := adj.RowDegree(v); deg > 0 {
			g.invDeg[v] = 1 / float32(deg)
		}
	}
	return g, nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.adj.NumRows }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.adj.NNZ() }

// edgeExtent returns the first-dimension extent for edge-indexed staging
// buffers and EID-bound placeholders. EID bindings only require the extent
// to be ≥ NNZ, and expr rejects zero-sized placeholders, so a zero-edge
// graph clamps to 1: the spare row is never indexed because no edge exists.
func (g *Graph) edgeExtent() int { return max(g.NumEdges(), 1) }

// Adj exposes the adjacency matrix.
func (g *Graph) Adj() *sparse.CSR { return g.adj }

// Config returns the graph's configuration.
func (g *Graph) Config() Config { return g.cfg }

// ResetStats zeroes the accumulated statistics.
func (g *Graph) ResetStats() {
	g.SimCycles = 0
	g.MsgBytes = 0
	g.hits.Store(0)
	g.misses.Store(0)
}

// segRowChunks returns the graph's edge-balanced destination-row chunks for
// segment loops run on the shared worker pool. Built once: the topology and
// thread count are fixed for the graph's lifetime.
func (g *Graph) segRowChunks() []partition.Range {
	g.segOnce.Do(func() {
		g.segChunks = core.EdgeBalancedRowChunks(g.adj, g.cfg.NumThreads)
	})
	return g.segChunks
}

// coreOptions translates the config into sparse-template options.
func (g *Graph) coreOptions() core.Options {
	return core.Options{
		Target:          g.cfg.Target,
		NumThreads:      g.cfg.NumThreads,
		GraphPartitions: g.cfg.GraphPartitions,
		Device:          g.cfg.Device,
		Admission:       g.cfg.Admission,
		Deadline:        g.cfg.Deadline,
		Retries:         g.cfg.Retries,
	}
}

func (g *Graph) charge(cycles uint64) {
	if g.cfg.Target == core.GPU {
		g.SimCycles += cycles
	}
}

// ChargeDense accounts for dense-layer work (e.g. the models' X×W
// products) on the simulated GPU: flops spread across the device at one
// FLOP per cycle per SM-warp lane. No-op on CPU, where dense work is real
// host time already.
func (g *Graph) ChargeDense(flops uint64) {
	if g.cfg.Target != core.GPU {
		return
	}
	lanes := uint64(g.cfg.Device.NumSMs()) * 32
	g.SimCycles += flops / lanes
}

// Package ligra is a Ligra-like shared-memory graph processing framework,
// the CPU baseline of the paper's comparisons (see DESIGN.md). It keeps the
// part of Ligra's design that GNN workloads run: a dense frontier and a
// pull-mode EdgeMap that walks every destination's in-edges.
//
// Crucially — and this is the property the paper's comparison hinges on —
// the computation on each edge is a blackbox closure: the framework
// optimizes traversal but cannot tile, fuse or parallelize the feature
// dimension computation inside the user's edge function.
package ligra

import (
	"sync"

	"featgraph/internal/sparse"
)

// Graph stores the in-edges (CSR by destination) that pull-mode traversal
// walks.
type Graph struct {
	In *sparse.CSR
	N  int
}

// NewGraph builds a ligra graph from a destination-major adjacency matrix.
func NewGraph(csr *sparse.CSR) *Graph {
	return &Graph{In: csr, N: csr.NumRows}
}

// Frontier is a dense set of active vertices: f[v] is true when v is
// active.
type Frontier []bool

// FullFrontier returns a frontier with every vertex active, the steady
// state of GNN workloads (§VI: "typically all vertices are active at each
// layer").
func FullFrontier(n int) Frontier {
	f := make(Frontier, n)
	for i := range f {
		f[i] = true
	}
	return f
}

// Has reports whether v is active.
func (f Frontier) Has(v int32) bool { return f[v] }

// EdgeFunc is the blackbox per-edge computation. The framework makes all
// calls with the same dst on one goroutine, so unsynchronized updates to
// per-dst state are safe.
type EdgeFunc func(src, dst, eid int32)

// EdgeMap applies fn to every edge whose source is active, in pull mode:
// it iterates destinations and scans each one's in-edges for active
// sources. Rows are split across threads; threads <= 1 is serial.
func EdgeMap(g *Graph, f Frontier, fn EdgeFunc, threads int) {
	runChunks(g.N, threads, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			for p := g.In.RowPtr[r]; p < g.In.RowPtr[r+1]; p++ {
				src := g.In.ColIdx[p]
				if !f.Has(src) {
					continue
				}
				fn(src, int32(r), g.In.EID[p])
			}
		}
	})
}

// runChunks splits [0,n) into contiguous chunks across threads.
func runChunks(n, threads int, body func(lo, hi int)) {
	if threads <= 1 || n <= 1 {
		body(0, n)
		return
	}
	if threads > n {
		threads = n
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		lo := w * n / threads
		hi := (w + 1) * n / threads
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

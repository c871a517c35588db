package featgraph

import (
	"featgraph/internal/delta"
	"featgraph/internal/serve"
	"featgraph/internal/tensor"
)

// Dynamic-graph surface: versioned mutable graphs over the delta engine.
// A MutableGraph accepts batched edge inserts/deletes (ApplyDelta, or the
// fluent Mutator) committed as monotonically versioned copy-on-write
// snapshots; readers pin a snapshot and keep a consistent topology while
// writers commit. With a delta directory configured every commit is
// written ahead to a CRC-framed log and fsynced before it acknowledges,
// so reopening after a crash (OpenMutableGraph) recovers exactly the
// committed versions. See README.md's "Dynamic graphs" section and
// DESIGN.md §19.
type (
	// EdgeDelta is one edge mutation: Src→Dst with weight Val (Val is
	// ignored for deletes).
	EdgeDelta = delta.Edge
	// DeltaBatch is one atomic set of edge inserts and deletes; deletes
	// apply before inserts, and the whole batch is validated and
	// committed or rejected as a unit.
	DeltaBatch = delta.Batch
	// GraphSnapshot pins one committed version of a MutableGraph. Call
	// Release when done so the version's plans can be reclaimed.
	GraphSnapshot = delta.Snapshot
)

// ErrGraphClosed is returned by MutableGraph operations after Close.
var ErrGraphClosed = delta.ErrClosed

// MutableConfig configures a MutableGraph; build it with the
// WithDelta* options.
type MutableConfig struct {
	cfg delta.Config
}

// MutableOption mutates a MutableConfig under construction, mirroring the
// NewOptions / NewServeConfig idiom.
type MutableOption func(*MutableConfig)

// WithDeltaDir makes the graph durable: commits append to a write-ahead
// delta log in dir (fsynced before acknowledging) and background
// compaction folds them into a fresh base, so OpenMutableGraph recovers
// every acknowledged commit after a crash. Without it the graph is
// in-memory only.
func WithDeltaDir(dir string) MutableOption {
	return func(c *MutableConfig) { c.cfg.Dir = dir }
}

// WithCompactRows sets how many patched rows the copy-on-write overlay
// may accumulate before background compaction folds it into a fresh base
// CSR. <= 0 keeps the default (1024).
func WithCompactRows(n int) MutableOption {
	return func(c *MutableConfig) { c.cfg.CompactRows = n }
}

// WithReclaimHook registers fn to run once for each version whose last
// snapshot reference drains, for evicting version-keyed caches of the
// caller's own or for metrics. It may run on any goroutine and must not
// call back into the graph.
func WithReclaimHook(fn func(version uint64)) MutableOption {
	return func(c *MutableConfig) { c.cfg.OnReclaim = fn }
}

// MutableGraph is a versioned graph accepting live edge mutations while
// readers serve from pinned snapshots. Writers commit through ApplyDelta
// or a Mutator; snapshot accessors (Snapshot, PinGraph) give readers a
// consistent view. Safe for concurrent use. Close releases background
// resources; outstanding snapshots stay valid until released.
type MutableGraph struct {
	eng *delta.Engine
}

// NewMutableGraph starts a mutable graph at version 0 from g's topology
// (copied; g itself is not retained). With WithDeltaDir the initial base
// is persisted and an empty delta log created — the directory must not
// already hold a store (reopen those with OpenMutableGraph).
func NewMutableGraph(g *Graph, opts ...MutableOption) (*MutableGraph, error) {
	var mc MutableConfig
	for _, o := range opts {
		o(&mc)
	}
	eng, err := delta.New(g.csr, mc.cfg)
	if err != nil {
		return nil, err
	}
	return &MutableGraph{eng: eng}, nil
}

// OpenMutableGraph recovers a durable mutable graph from dir: the last
// compacted base is loaded and the delta log replayed, resuming at
// exactly the newest acknowledged commit (a torn log tail from a crash
// mid-append is discarded).
func OpenMutableGraph(dir string, opts ...MutableOption) (*MutableGraph, error) {
	mc := MutableConfig{}
	mc.cfg.Dir = dir
	for _, o := range opts {
		o(&mc)
	}
	eng, err := delta.Open(mc.cfg)
	if err != nil {
		return nil, err
	}
	return &MutableGraph{eng: eng}, nil
}

// ApplyDelta atomically commits one batch of edge mutations and returns
// the new version. The batch is validated against the current version
// (range checks, no duplicate inserts, no deletes of absent edges) and
// with durability configured the log record is on disk before ApplyDelta
// returns. Commits serialize; readers never block.
func (m *MutableGraph) ApplyDelta(b DeltaBatch) (uint64, error) {
	return m.eng.Commit(b)
}

// Version returns the latest committed version (0 = the initial base).
func (m *MutableGraph) Version() uint64 { return m.eng.Version() }

// NumVertices returns the fixed vertex count.
func (m *MutableGraph) NumVertices() int { return m.eng.NumVertices() }

// NumEdges returns the edge count at the latest committed version.
func (m *MutableGraph) NumEdges() int { return m.eng.NumEdges() }

// Snapshot pins the latest committed version and returns its handle; the
// caller must Release it. The snapshot's CSR() materializes the topology
// on first use.
func (m *MutableGraph) Snapshot() (*GraphSnapshot, error) {
	s := m.eng.Acquire()
	if s == nil {
		return nil, ErrGraphClosed
	}
	return s, nil
}

// PinGraph pins the newest ready (pre-materialized) snapshot and wraps it
// as a read-only Graph for the kernel APIs (SpMM, SDDMM, Apply…).
// release must be called exactly once when done; version identifies the
// pinned topology. The serving path may briefly trail the committed tip
// while a fresh commit materializes — consistent, never torn.
func (m *MutableGraph) PinGraph() (g *Graph, version uint64, release func(), err error) {
	adj, ver, rel, err := m.eng.PinLatest()
	if err != nil {
		return nil, 0, nil, err
	}
	return &Graph{csr: adj}, ver, rel, nil
}

// Engine exposes the underlying delta engine for interoperation with the
// lower-level packages (serve.NewDynamic takes it as a SnapshotSource).
func (m *MutableGraph) Engine() *delta.Engine { return m.eng }

// Close stops background compaction/materialization and closes the delta
// log. Outstanding snapshots stay valid until their holders release them.
func (m *MutableGraph) Close() error { return m.eng.Close() }

// Mutator accumulates edge mutations fluently and commits them as one
// atomic DeltaBatch:
//
//	ver, err := g.Mutate().Insert(2, 7, 1.0).Delete(3, 7).Commit()
//
// A Mutator is single-use and not safe for concurrent use; validation
// happens at Commit.
type Mutator struct {
	m     *MutableGraph
	batch DeltaBatch
}

// Mutate starts an empty mutation against the graph's current state.
func (m *MutableGraph) Mutate() *Mutator { return &Mutator{m: m} }

// Insert stages the edge src→dst with weight w.
func (mu *Mutator) Insert(src, dst int32, w float32) *Mutator {
	mu.batch.Insert = append(mu.batch.Insert, EdgeDelta{Src: src, Dst: dst, Val: w})
	return mu
}

// Delete stages removal of the edge src→dst.
func (mu *Mutator) Delete(src, dst int32) *Mutator {
	mu.batch.Delete = append(mu.batch.Delete, EdgeDelta{Src: src, Dst: dst})
	return mu
}

// Commit atomically applies the staged mutations, returning the new
// version.
func (mu *Mutator) Commit() (uint64, error) { return mu.m.ApplyDelta(mu.batch) }

// NewDynamicBatcher builds the online inference server over a mutable
// graph: each merged batch pins the newest ready snapshot, so commits
// never stall serving and every request reports the version that answered
// it (ServeResult.Info.GraphVersion).
func NewDynamicBatcher(m *MutableGraph, feats *tensor.Tensor, model ServeModel, cfg ServeConfig) (*Batcher, error) {
	return serve.NewDynamic(m.eng, feats, model, cfg)
}

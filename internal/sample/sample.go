// Package sample implements GraphSage-style seeded neighbor sampling for
// minibatch GNN inference (DGL's block convention): a set of seed vertices
// is expanded backwards through the graph's in-edges, layer by layer, into
// small fanout-capped bipartite block-CSRs with compact local indices.
//
// Determinism is the load-bearing property for the serving layer: the
// neighbors picked for a vertex at a given layer depend only on
// (Config.Seed, layer, vertex) — never on which other vertices share the
// minibatch. A micro-batcher can therefore merge many requests, sample
// once, and still produce per-request outputs bitwise-identical to running
// each request alone, because every seed sees exactly the neighborhood it
// would have seen solo. Picks are kept in ascending stored-edge order so
// aggregation walks edges in the same order batched or not.
package sample

import (
	"fmt"
	"sort"

	"featgraph/internal/sparse"
)

// Config configures a Sampler.
type Config struct {
	// Fanouts gives the per-layer neighbor cap in forward execution order:
	// Fanouts[0] is the input-most layer, Fanouts[len-1] the layer that
	// produces the seeds' outputs. A fanout <= 0 keeps every in-edge.
	Fanouts []int
	// Seed fixes the sampling hash; two samplers with equal Seed and
	// Fanouts make identical picks for every (layer, vertex).
	Seed int64
}

// Block is one bipartite sampling layer: a [len(Dst) x len(Src)] in-edge
// CSR in local indices. Dst lists the global id of each block row; Src the
// global id of each block column. The destination set is always a prefix
// of the source set (Src[:len(Dst)] == Dst, in order), so a destination
// vertex's own features are addressable on the source side at the same
// index — the GraphSage self/neighbor split needs exactly that. Adj.EID
// holds global edge ids.
type Block struct {
	Adj *sparse.CSR
	Dst []int32
	Src []int32
}

// Sampler draws deterministic fanout-capped neighborhoods from a fixed
// adjacency. It is immutable after New and safe for concurrent use.
type Sampler struct {
	adj *sparse.CSR
	cfg Config
}

// New validates cfg against the in-edge adjacency (rows = destinations,
// cols = sources; must be square) and returns a Sampler.
func New(adj *sparse.CSR, cfg Config) (*Sampler, error) {
	if adj == nil {
		return nil, fmt.Errorf("sample: nil adjacency")
	}
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("sample: invalid adjacency: %w", err)
	}
	if adj.NumRows != adj.NumCols {
		return nil, fmt.Errorf("sample: adjacency must be square, got %dx%d", adj.NumRows, adj.NumCols)
	}
	if len(cfg.Fanouts) == 0 {
		return nil, fmt.Errorf("sample: at least one layer fanout required")
	}
	return &Sampler{adj: adj, cfg: cfg}, nil
}

// NewTrusted is New minus the O(nnz) adjacency validation, for callers
// holding a CSR whose well-formedness is already guaranteed — snapshots
// materialized by the delta engine, which builds sorted, in-range rows by
// construction. The serving path builds one sampler per graph version;
// paying a full validation per committed version would put an O(edges)
// stall on the commit pipeline for no new information.
func NewTrusted(adj *sparse.CSR, cfg Config) (*Sampler, error) {
	if adj == nil {
		return nil, fmt.Errorf("sample: nil adjacency")
	}
	if adj.NumRows != adj.NumCols {
		return nil, fmt.Errorf("sample: adjacency must be square, got %dx%d", adj.NumRows, adj.NumCols)
	}
	if len(cfg.Fanouts) == 0 {
		return nil, fmt.Errorf("sample: at least one layer fanout required")
	}
	return &Sampler{adj: adj, cfg: cfg}, nil
}

// NumVertices returns the vertex count of the underlying graph.
func (s *Sampler) NumVertices() int { return s.adj.NumRows }

// Sample expands seeds into one block per configured layer, returned in
// forward execution order: blocks[0] is consumed first (its Src name the
// input-feature vertices), blocks[len-1].Dst are the seeds.
//
// Invariant: blocks[i].Dst and blocks[i+1].Src name the same vertices in
// the same order (sampling walks backwards: the column list produced while
// sampling layer i+1 becomes the row frontier for layer i), so a layer's
// output tensor feeds the next block's source side with no re-indexing.
//
// Seeds must be distinct, in-range vertex ids. Zero seeds yields empty
// blocks.
func (s *Sampler) Sample(seeds []int32) ([]*Block, error) {
	seen := make(map[int32]struct{}, len(seeds))
	for _, v := range seeds {
		if v < 0 || int(v) >= s.adj.NumRows {
			return nil, fmt.Errorf("sample: seed %d out of range [0,%d)", v, s.adj.NumRows)
		}
		if _, dup := seen[v]; dup {
			return nil, fmt.Errorf("sample: duplicate seed %d", v)
		}
		seen[v] = struct{}{}
	}

	nLayers := len(s.cfg.Fanouts)
	blocks := make([]*Block, nLayers)
	frontier := make([]int32, len(seeds))
	copy(frontier, seeds)
	picks := make([][]int32, 0, len(seeds))
	for layer := nLayers - 1; layer >= 0; layer-- {
		picks = picks[:0]
		for _, v := range frontier {
			picks = append(picks, s.rowPicks(layer, v, s.cfg.Fanouts[layer]))
		}
		blk, cols, err := s.adj.InducedBlock(frontier, picks, frontier)
		if err != nil {
			return nil, fmt.Errorf("sample: layer %d: %w", layer, err)
		}
		blocks[layer] = &Block{Adj: blk, Dst: frontier, Src: cols}
		frontier = cols
	}
	return blocks, nil
}

// rowPicks returns the absolute stored-edge positions sampled for vertex v
// at the given layer, ascending. With fanout <= 0 or degree <= fanout the
// whole row is kept. Otherwise exactly fanout distinct positions are drawn
// without replacement by Floyd's algorithm from a splitmix64 stream seeded
// only by (cfg.Seed, layer, v) — minibatch-independent by construction.
func (s *Sampler) rowPicks(layer int, v int32, fanout int) []int32 {
	lo, hi := s.adj.RowPtr[v], s.adj.RowPtr[v+1]
	deg := int(hi - lo)
	if fanout <= 0 || deg <= fanout {
		out := make([]int32, deg)
		for i := range out {
			out[i] = lo + int32(i)
		}
		return out
	}
	state := seedFor(s.cfg.Seed, layer, v)
	chosen := make([]int32, 0, fanout)
	for j := deg - fanout; j < deg; j++ {
		t := int32(next(&state) % uint64(j+1))
		dup := false
		for _, c := range chosen {
			if c == t {
				dup = true
				break
			}
		}
		if dup {
			chosen = append(chosen, int32(j))
		} else {
			chosen = append(chosen, t)
		}
	}
	sort.Slice(chosen, func(a, b int) bool { return chosen[a] < chosen[b] })
	for i := range chosen {
		chosen[i] += lo
	}
	return chosen
}

// seedFor derives the per-(seed, layer, vertex) stream seed via two rounds
// of the splitmix64 finalizer.
func seedFor(seed int64, layer int, v int32) uint64 {
	z := mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(layer+1))
	return mix64(z ^ (uint64(uint32(v))+1)*0xbf58476d1ce4e5b9)
}

// next advances a splitmix64 stream.
func next(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Package sparse provides the sparse-matrix representations of graph
// topology used by FeatGraph's templates and the baseline systems.
//
// A graph G(V,E) is stored as the adjacency matrix A with A[dst,src] != 0
// when an edge src→dst exists, following the SpMM convention of the paper:
// H = A × X aggregates source-vertex features into destination vertices.
// CSR is therefore indexed by destination row (in-edges), and its
// Transpose by source (out-edges). Every edge carries a stable edge id
// (eid) so that edge feature tensors can be addressed from any
// representation.
package sparse

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// COO is an edge-list (coordinate) representation. Entries may be in any
// order but must be unique (no duplicate (Row,Col) pairs).
type COO struct {
	NumRows int
	NumCols int
	Row     []int32 // destination vertex of each edge
	Col     []int32 // source vertex of each edge
	Val     []float32
}

// CSR is compressed sparse row. RowPtr has NumRows+1 entries; the in-edges
// of destination row r are ColIdx[RowPtr[r]:RowPtr[r+1]]. EID maps each
// stored entry to its stable edge id, and Val carries the edge weight.
type CSR struct {
	NumRows int
	NumCols int
	RowPtr  []int32
	ColIdx  []int32
	EID     []int32
	Val     []float32

	// ident and ver address this topology for caches that must survive
	// graph mutation. A plain CSR gets a process-unique ident lazily
	// (Identity) and stays at version 0; the delta engine binds every
	// materialized snapshot of one mutable graph to a shared ident with
	// a distinct version (BindVersion), so cache keys built from
	// (Identity, Version) distinguish versions of one graph without
	// relying on pointer identity. Guarded by identMu.
	ident uint64
	ver   uint64
}

// Topology identity state. A mutex (not per-CSR atomics) keeps the struct
// free of noCopy fields; identity reads happen at cache-key assembly, far
// off any per-edge path.
var (
	identMu  sync.Mutex
	identSeq uint64
)

// ReserveIdentity allocates a fresh topology identity from the same space
// lazy per-CSR identities draw from. The delta engine reserves one per
// mutable graph and binds it to every materialized snapshot version.
func ReserveIdentity() uint64 {
	identMu.Lock()
	defer identMu.Unlock()
	identSeq++
	return identSeq
}

// Identity returns the matrix's topology identity, assigning a fresh
// process-unique one on first call. Two distinct CSR objects never share
// an identity unless BindVersion deliberately bound them to one mutable
// graph; clones and transposes (Clone, Transpose) start unbound
// and receive their own identity lazily.
func (c *CSR) Identity() uint64 {
	identMu.Lock()
	defer identMu.Unlock()
	if c.ident == 0 {
		identSeq++
		c.ident = identSeq
	}
	return c.ident
}

// Version returns the snapshot version bound by BindVersion, or 0 for a
// static topology.
func (c *CSR) Version() uint64 { identMu.Lock(); defer identMu.Unlock(); return c.ver }

// BindVersion stamps the matrix as version ver of the mutable graph with
// the given reserved identity. Call before publishing the matrix to
// readers; rebinding an already-bound or lazily-identified matrix panics,
// because cache keys derived from the old identity would go stale
// silently.
func (c *CSR) BindVersion(ident, ver uint64) {
	identMu.Lock()
	defer identMu.Unlock()
	if c.ident != 0 {
		panic("sparse: BindVersion on a matrix that already has an identity")
	}
	c.ident = ident
	c.ver = ver
}

// NNZ returns the number of stored edges.
func (c *COO) NNZ() int { return len(c.Row) }

// NNZ returns the number of stored edges.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// Validate checks structural invariants and returns a descriptive error for
// the first violation found. It is used at construction boundaries; kernels
// assume validated inputs.
func (c *CSR) Validate() error {
	if c.NumRows < 0 || c.NumCols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", c.NumRows, c.NumCols)
	}
	if len(c.RowPtr) != c.NumRows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(c.RowPtr), c.NumRows+1)
	}
	if c.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", c.RowPtr[0])
	}
	nnz := int32(len(c.ColIdx))
	if c.RowPtr[c.NumRows] != nnz {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want nnz %d", c.RowPtr[c.NumRows], nnz)
	}
	for r := 0; r < c.NumRows; r++ {
		if c.RowPtr[r] > c.RowPtr[r+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d (%d > %d)", r, c.RowPtr[r], c.RowPtr[r+1])
		}
	}
	if len(c.EID) != len(c.ColIdx) {
		return fmt.Errorf("sparse: EID length %d, want %d", len(c.EID), len(c.ColIdx))
	}
	if len(c.Val) != len(c.ColIdx) {
		return fmt.Errorf("sparse: Val length %d, want %d", len(c.Val), len(c.ColIdx))
	}
	for i, col := range c.ColIdx {
		if col < 0 || int(col) >= c.NumCols {
			return fmt.Errorf("sparse: ColIdx[%d] = %d out of range [0,%d)", i, col, c.NumCols)
		}
	}
	// EIDs may exceed the local nnz: sub-matrices produced by partitioning
	// keep the parent graph's global edge ids so edge feature tensors stay
	// addressable. Only negativity is a structural violation.
	for i, e := range c.EID {
		if e < 0 {
			return fmt.Errorf("sparse: EID[%d] = %d is negative", i, e)
		}
	}
	return nil
}

// FromCOO builds a CSR matrix from an edge list, assigning edge ids in the
// order edges appear in the COO (eid i = i-th COO entry). Column indices
// within each row are sorted ascending. Returns an error if any coordinate
// is out of range or duplicated.
func FromCOO(coo *COO) (*CSR, error) {
	n, m, nnz := coo.NumRows, coo.NumCols, coo.NNZ()
	if len(coo.Col) != nnz || (coo.Val != nil && len(coo.Val) != nnz) {
		return nil, fmt.Errorf("sparse: COO slice lengths disagree: row=%d col=%d val=%d", len(coo.Row), len(coo.Col), len(coo.Val))
	}
	csr := &CSR{
		NumRows: n,
		NumCols: m,
		RowPtr:  make([]int32, n+1),
		ColIdx:  make([]int32, nnz),
		EID:     make([]int32, nnz),
		Val:     make([]float32, nnz),
	}
	for i := 0; i < nnz; i++ {
		r, c := coo.Row[i], coo.Col[i]
		if r < 0 || int(r) >= n {
			return nil, fmt.Errorf("sparse: edge %d row %d out of range [0,%d)", i, r, n)
		}
		if c < 0 || int(c) >= m {
			return nil, fmt.Errorf("sparse: edge %d col %d out of range [0,%d)", i, c, m)
		}
		csr.RowPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		csr.RowPtr[r+1] += csr.RowPtr[r]
	}
	cursor := make([]int32, n)
	copy(cursor, csr.RowPtr[:n])
	for i := 0; i < nnz; i++ {
		r := coo.Row[i]
		p := cursor[r]
		cursor[r]++
		csr.ColIdx[p] = coo.Col[i]
		csr.EID[p] = int32(i)
		if coo.Val != nil {
			csr.Val[p] = coo.Val[i]
		} else {
			csr.Val[p] = 1
		}
	}
	// Sort each row by column index, keeping EID/Val aligned, then reject
	// duplicates, which would silently double-count aggregations.
	for r := 0; r < n; r++ {
		lo, hi := csr.RowPtr[r], csr.RowPtr[r+1]
		seg := rowSorter{csr.ColIdx[lo:hi], csr.EID[lo:hi], csr.Val[lo:hi]}
		sort.Sort(seg)
		for i := int(lo) + 1; i < int(hi); i++ {
			if csr.ColIdx[i] == csr.ColIdx[i-1] {
				return nil, fmt.Errorf("sparse: duplicate edge (%d,%d)", r, csr.ColIdx[i])
			}
		}
	}
	return csr, nil
}

type rowSorter struct {
	col []int32
	eid []int32
	val []float32
}

func (s rowSorter) Len() int           { return len(s.col) }
func (s rowSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s rowSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.eid[i], s.eid[j] = s.eid[j], s.eid[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// Transpose returns Aᵀ as CSR (rows and columns exchanged), preserving edge
// ids and values. Row indices within each transposed row are sorted
// ascending. The gradient of SpMM with respect to X is Aᵀ × dH, so training
// needs this frequently; it is O(nnz).
func (c *CSR) Transpose() *CSR {
	nnz := c.NNZ()
	t := &CSR{
		NumRows: c.NumCols,
		NumCols: c.NumRows,
		RowPtr:  make([]int32, c.NumCols+1),
		ColIdx:  make([]int32, nnz),
		EID:     make([]int32, nnz),
		Val:     make([]float32, nnz),
	}
	for _, col := range c.ColIdx {
		t.RowPtr[col+1]++
	}
	for j := 0; j < c.NumCols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	cursor := make([]int32, c.NumCols)
	copy(cursor, t.RowPtr[:c.NumCols])
	for r := 0; r < c.NumRows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			j := c.ColIdx[p]
			q := cursor[j]
			cursor[j]++
			t.ColIdx[q] = int32(r)
			t.EID[q] = c.EID[p]
			t.Val[q] = c.Val[p]
		}
	}
	return t
}

// EdgeRows returns the row of every stored entry in storage order: the
// destination vertex of each edge.
func (c *CSR) EdgeRows() []int32 {
	rows := make([]int32, c.NNZ())
	for r := 0; r < c.NumRows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			rows[p] = int32(r)
		}
	}
	return rows
}

// RowDegree returns the number of stored entries in row r (in-degree of
// destination vertex r).
func (c *CSR) RowDegree(r int) int { return int(c.RowPtr[r+1] - c.RowPtr[r]) }

// AvgDegree returns the mean number of entries per row.
func (c *CSR) AvgDegree() float64 {
	if c.NumRows == 0 {
		return 0
	}
	return float64(c.NNZ()) / float64(c.NumRows)
}

// Sparsity returns the fraction of zero entries, e.g. 0.995 for a graph
// where 0.5% of all possible edges exist. Matches the paper's Table V usage.
func (c *CSR) Sparsity() float64 {
	total := float64(c.NumRows) * float64(c.NumCols)
	if total == 0 {
		return 1
	}
	return 1 - float64(c.NNZ())/total
}

// Clone returns a deep copy of the matrix.
func (c *CSR) Clone() *CSR {
	return &CSR{
		NumRows: c.NumRows,
		NumCols: c.NumCols,
		RowPtr:  append([]int32(nil), c.RowPtr...),
		ColIdx:  append([]int32(nil), c.ColIdx...),
		EID:     append([]int32(nil), c.EID...),
		Val:     append([]float32(nil), c.Val...),
	}
}

// Random returns a uniform random n×m CSR matrix where each row has exactly
// degree entries (sampled without replacement), with all values 1. Useful
// for tests and the sparsity sensitivity study.
func Random(rng *rand.Rand, n, m, degree int) *CSR {
	if degree > m {
		degree = m
	}
	coo := &COO{NumRows: n, NumCols: m}
	seen := make(map[int32]struct{}, degree)
	for r := 0; r < n; r++ {
		clear(seen)
		for len(seen) < degree {
			c := int32(rng.Intn(m))
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			coo.Row = append(coo.Row, int32(r))
			coo.Col = append(coo.Col, c)
		}
	}
	csr, err := FromCOO(coo)
	if err != nil {
		panic("sparse: Random produced invalid COO: " + err.Error())
	}
	return csr
}

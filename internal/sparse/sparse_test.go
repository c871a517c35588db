package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny returns the 8-vertex sample graph of the paper's Figure 5 shape:
// a small directed graph with varied degrees.
func tiny(t *testing.T) *CSR {
	t.Helper()
	coo := &COO{
		NumRows: 8, NumCols: 8,
		Row: []int32{0, 0, 1, 2, 2, 2, 3, 4, 5, 6, 7, 7},
		Col: []int32{1, 3, 0, 1, 4, 7, 2, 5, 6, 0, 3, 5},
	}
	csr, err := FromCOO(coo)
	if err != nil {
		t.Fatalf("FromCOO: %v", err)
	}
	return csr
}

func TestFromCOOBasics(t *testing.T) {
	c := tiny(t)
	if c.NNZ() != 12 {
		t.Fatalf("NNZ = %d, want 12", c.NNZ())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.RowDegree(2); got != 3 {
		t.Fatalf("RowDegree(2) = %d, want 3", got)
	}
	// Rows sorted by column.
	for r := 0; r < c.NumRows; r++ {
		for p := c.RowPtr[r] + 1; p < c.RowPtr[r+1]; p++ {
			if c.ColIdx[p-1] >= c.ColIdx[p] {
				t.Fatalf("row %d not sorted: %v", r, c.ColIdx[c.RowPtr[r]:c.RowPtr[r+1]])
			}
		}
	}
}

func TestFromCOODefaultValuesAreOne(t *testing.T) {
	c := tiny(t)
	for i, v := range c.Val {
		if v != 1 {
			t.Fatalf("Val[%d] = %v, want 1", i, v)
		}
	}
}

func TestFromCOOPreservesEdgeIDs(t *testing.T) {
	coo := &COO{
		NumRows: 3, NumCols: 3,
		Row: []int32{2, 0, 1},
		Col: []int32{1, 2, 0},
		Val: []float32{10, 20, 30},
	}
	c, err := FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	// Each stored entry's EID must point back to its original COO index.
	for r := 0; r < 3; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			e := c.EID[p]
			if coo.Row[e] != int32(r) || coo.Col[e] != c.ColIdx[p] {
				t.Fatalf("EID %d does not map to (%d,%d)", e, r, c.ColIdx[p])
			}
			if c.Val[p] != coo.Val[e] {
				t.Fatalf("Val misaligned for eid %d", e)
			}
		}
	}
}

func TestFromCOORejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		coo  *COO
	}{
		{"row out of range", &COO{NumRows: 2, NumCols: 2, Row: []int32{2}, Col: []int32{0}}},
		{"negative row", &COO{NumRows: 2, NumCols: 2, Row: []int32{-1}, Col: []int32{0}}},
		{"col out of range", &COO{NumRows: 2, NumCols: 2, Row: []int32{0}, Col: []int32{5}}},
		{"duplicate edge", &COO{NumRows: 2, NumCols: 2, Row: []int32{0, 0}, Col: []int32{1, 1}}},
		{"length mismatch", &COO{NumRows: 2, NumCols: 2, Row: []int32{0, 1}, Col: []int32{0}}},
	}
	for _, tc := range cases {
		if _, err := FromCOO(tc.coo); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := tiny(t)
	c.ColIdx[0] = 99
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range ColIdx")
	}
	c = tiny(t)
	c.RowPtr[3] = c.RowPtr[4] + 1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject non-monotone RowPtr")
	}
	c = tiny(t)
	c.EID[0] = -1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject negative EID")
	}
	c = tiny(t)
	c.RowPtr[0] = 1
	if err := c.Validate(); err == nil {
		t.Fatal("Validate should reject RowPtr[0] != 0")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		c := Random(rng, n, n, 1+rng.Intn(n))
		tt := c.Transpose().Transpose()
		return sameStructure(c, tt) && tt.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSCPreservesEdges(t *testing.T) {
	c := tiny(t)
	// The column-major (CSC) view of A is Aᵀ in CSR form: row j of Aᵀ lists
	// the in-edges of column j.
	csc := c.Transpose()
	if csc.NNZ() != c.NNZ() {
		t.Fatalf("CSC NNZ = %d, want %d", csc.NNZ(), c.NNZ())
	}
	// Every (row, col, eid) triple in the CSC must appear in the CSR.
	type edge struct{ r, col, e int32 }
	set := make(map[edge]bool)
	for r := 0; r < c.NumRows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			set[edge{int32(r), c.ColIdx[p], c.EID[p]}] = true
		}
	}
	for j := 0; j < csc.NumRows; j++ {
		for q := csc.RowPtr[j]; q < csc.RowPtr[j+1]; q++ {
			if !set[edge{csc.ColIdx[q], int32(j), csc.EID[q]}] {
				t.Fatalf("CSC edge (%d,%d,eid=%d) missing from CSR", csc.ColIdx[q], j, csc.EID[q])
			}
		}
	}
}

func TestTransposeSwapsEdges(t *testing.T) {
	c := tiny(t)
	tr := c.Transpose()
	if tr.NumRows != c.NumCols || tr.NumCols != c.NumRows || tr.NNZ() != c.NNZ() {
		t.Fatal("Transpose dims wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge (r,c) in A must appear as (c,r) in Aᵀ with same eid.
	for r := 0; r < c.NumRows; r++ {
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			col, eid := c.ColIdx[p], c.EID[p]
			found := false
			for q := tr.RowPtr[col]; q < tr.RowPtr[col+1]; q++ {
				if tr.ColIdx[q] == int32(r) && tr.EID[q] == eid {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d,eid=%d) missing in transpose", r, col, eid)
			}
		}
	}
}

func TestDegreeStats(t *testing.T) {
	c := tiny(t)
	sum := 0
	for r := 0; r < c.NumRows; r++ {
		sum += c.RowDegree(r)
	}
	if sum != c.NNZ() {
		t.Fatalf("degree sum %d != nnz %d", sum, c.NNZ())
	}
	if got := c.AvgDegree(); got != 1.5 {
		t.Fatalf("AvgDegree = %v, want 1.5", got)
	}
	want := 1 - 12.0/64.0
	if got := c.Sparsity(); got != want {
		t.Fatalf("Sparsity = %v, want %v", got, want)
	}
}

func TestRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Random(rng, 50, 40, 10)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.NumRows; r++ {
		if c.RowDegree(r) != 10 {
			t.Fatalf("row %d degree %d, want 10", r, c.RowDegree(r))
		}
	}
	// Degree capped at NumCols.
	c2 := Random(rng, 3, 4, 100)
	if c2.RowDegree(0) != 4 {
		t.Fatalf("degree should cap at NumCols, got %d", c2.RowDegree(0))
	}
}

func TestCloneIndependent(t *testing.T) {
	c := tiny(t)
	cl := c.Clone()
	cl.ColIdx[0] = 99
	if c.ColIdx[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func sameStructure(a, b *CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

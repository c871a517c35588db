package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"featgraph/internal/graphgen"
	"featgraph/internal/sparse"
)

func randGraph(t *testing.T, seed int64, n, deg int) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return sparse.Random(rng, n, n, deg)
}

func TestOneDConservesEdges(t *testing.T) {
	a := randGraph(t, 1, 64, 9)
	for _, parts := range []int{1, 2, 3, 4, 7, 64} {
		p := OneD(a, parts)
		if p.NumParts() != parts {
			t.Fatalf("NumParts = %d, want %d", p.NumParts(), parts)
		}
		total := 0
		for i, part := range p.Parts {
			if err := part.Validate(); err != nil {
				t.Fatalf("parts=%d part %d invalid: %v", parts, i, err)
			}
			total += part.NNZ()
			rg := p.ColRanges[i]
			for _, c := range part.ColIdx {
				if int(c) < rg.Lo || int(c) >= rg.Hi {
					t.Fatalf("parts=%d part %d has col %d outside [%d,%d)", parts, i, c, rg.Lo, rg.Hi)
				}
			}
		}
		if total != a.NNZ() {
			t.Fatalf("parts=%d edges not conserved: %d vs %d", parts, total, a.NNZ())
		}
	}
}

func TestOneDRangesCoverColumns(t *testing.T) {
	a := randGraph(t, 2, 50, 5)
	p := OneD(a, 7)
	if p.ColRanges[0].Lo != 0 || p.ColRanges[len(p.ColRanges)-1].Hi != a.NumCols {
		t.Fatalf("ranges do not span columns: %v", p.ColRanges)
	}
	for i := 1; i < len(p.ColRanges); i++ {
		if p.ColRanges[i].Lo != p.ColRanges[i-1].Hi {
			t.Fatalf("ranges not contiguous: %v", p.ColRanges)
		}
	}
}

func TestOneDClamps(t *testing.T) {
	a := randGraph(t, 3, 8, 2)
	if got := OneD(a, 0).NumParts(); got != 1 {
		t.Fatalf("parts=0 should clamp to 1, got %d", got)
	}
	if got := OneD(a, 100).NumParts(); got != 8 {
		t.Fatalf("parts=100 should clamp to NumCols, got %d", got)
	}
}

func TestOneDPreservesEIDs(t *testing.T) {
	a := randGraph(t, 4, 32, 6)
	p := OneD(a, 4)
	seen := make(map[int32]bool, a.NNZ())
	for _, part := range p.Parts {
		for _, e := range part.EID {
			if seen[e] {
				t.Fatalf("eid %d appears in two parts", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != a.NNZ() {
		t.Fatalf("eids lost: %d of %d", len(seen), a.NNZ())
	}
}

func TestOneDPartitionProperty(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		a := sparse.Random(rng, n, n, 1+rng.Intn(5))
		parts := 1 + int(partsRaw)%8
		p := OneD(a, parts)
		total := 0
		for _, part := range p.Parts {
			total += part.NNZ()
		}
		return total == a.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureTiles(t *testing.T) {
	tiles := FeatureTiles(10, 4)
	want := []Range{{0, 4}, {4, 8}, {8, 10}}
	if len(tiles) != len(want) {
		t.Fatalf("FeatureTiles(10,4) = %v", tiles)
	}
	for i := range want {
		if tiles[i] != want[i] {
			t.Fatalf("FeatureTiles(10,4) = %v", tiles)
		}
	}
	if got := FeatureTiles(10, 0); len(got) != 1 || got[0] != (Range{0, 10}) {
		t.Fatalf("factor 0 should mean no tiling: %v", got)
	}
	if got := FeatureTiles(10, 100); len(got) != 1 {
		t.Fatalf("factor > d should mean no tiling: %v", got)
	}
	if (Range{3, 7}).Len() != 4 {
		t.Fatal("Range.Len wrong")
	}
}

func TestColumnDegrees(t *testing.T) {
	coo := &sparse.COO{
		NumRows: 3, NumCols: 3,
		Row: []int32{0, 1, 2, 2},
		Col: []int32{1, 1, 1, 0},
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	deg := ColumnDegrees(a)
	if deg[0] != 1 || deg[1] != 3 || deg[2] != 0 {
		t.Fatalf("ColumnDegrees = %v", deg)
	}
}

func TestHybridSeparatesByDegree(t *testing.T) {
	// Columns 0..3 low degree (1), columns 4..5 high degree (many rows).
	coo := &sparse.COO{NumRows: 10, NumCols: 6}
	for c := int32(0); c < 4; c++ {
		coo.Row = append(coo.Row, c)
		coo.Col = append(coo.Col, c)
	}
	for r := int32(0); r < 10; r++ {
		for c := int32(4); c < 6; c++ {
			coo.Row = append(coo.Row, r)
			coo.Col = append(coo.Col, c)
		}
	}
	a, err := sparse.FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Hybrid(a, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.LowCols != 4 {
		t.Fatalf("LowCols = %d, want 4", plan.LowCols)
	}
	if len(plan.ChunkCols) != 2 {
		t.Fatalf("ChunkCols = %v, want 2 chunks of 1", plan.ChunkCols)
	}
	total := 0
	for i, part := range plan.Parts {
		if err := part.Validate(); err != nil {
			t.Fatalf("part %d invalid: %v", i, err)
		}
		total += part.NNZ()
	}
	if total != a.NNZ() {
		t.Fatalf("hybrid parts lose edges: %d vs %d", total, a.NNZ())
	}
	// Low part must only contain low-degree columns.
	for _, c := range plan.Parts[0].ColIdx {
		if c >= 4 {
			t.Fatalf("low part contains high-degree col %d", c)
		}
	}
}

func TestHybridChunkSizing(t *testing.T) {
	a := randGraph(t, 5, 30, 10)
	plan, err := Hybrid(a, 1, 7) // all columns high-degree
	if err != nil {
		t.Fatal(err)
	}
	if plan.LowCols != 0 {
		t.Fatalf("LowCols = %d, want 0", plan.LowCols)
	}
	for i, chunk := range plan.ChunkCols {
		if len(chunk) > 7 {
			t.Fatalf("chunk %d has %d cols, max 7", i, len(chunk))
		}
	}
	if _, err := Hybrid(a, 1, 0); err == nil {
		t.Fatal("chunkCols=0 should error")
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	f := func(xRaw, yRaw uint16) bool {
		const k = 16
		x, y := uint32(xRaw), uint32(yRaw)
		d := HilbertXY2D(k, x, y)
		x2, y2 := HilbertD2XY(k, d)
		return x2 == x && y2 == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertBijectiveSmallGrid(t *testing.T) {
	const k = 3 // 8x8 grid
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			d := HilbertXY2D(k, x, y)
			if d >= 64 {
				t.Fatalf("d=%d out of range for 8x8", d)
			}
			if seen[d] {
				t.Fatalf("duplicate d=%d", d)
			}
			seen[d] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("not bijective: %d cells", len(seen))
	}
}

func TestHilbertCurveUnitSteps(t *testing.T) {
	// Consecutive curve positions must be grid neighbours (distance 1).
	const k = 4
	px, py := HilbertD2XY(k, 0)
	for d := uint64(1); d < 256; d++ {
		x, y := HilbertD2XY(k, d)
		step := absDiff(int32(x), int32(px)) + absDiff(int32(y), int32(py))
		if step != 1 {
			t.Fatalf("step from d=%d is %d, want 1", d-1, step)
		}
		px, py = x, y
	}
}

func TestHilbertEdgesPreserveEdgeSet(t *testing.T) {
	a := randGraph(t, 6, 40, 6)
	h := Hilbert(a)
	if len(h.Row) != a.NNZ() {
		t.Fatalf("Hilbert lost edges: %d vs %d", len(h.Row), a.NNZ())
	}
	type edge struct{ r, c, e int32 }
	set := make(map[edge]bool)
	rm := RowMajorEdges(a)
	for i := range rm.Row {
		set[edge{rm.Row[i], rm.Col[i], rm.EID[i]}] = true
	}
	for i := range h.Row {
		if !set[edge{h.Row[i], h.Col[i], h.EID[i]}] {
			t.Fatalf("hilbert edge %d not in original set", i)
		}
	}
}

// TestHilbertMatchesComparisonSort pins the radix-sorted traversal order to
// the comparison sort it replaced: by curve distance, ties by row-major
// position.
func TestHilbertMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	empty, _ := sparse.FromCOO(&sparse.COO{NumRows: 5, NumCols: 5})
	graphs := []*sparse.CSR{
		empty,
		sparse.Random(rng, 1, 300, 40),     // single row
		sparse.Random(rng, 300, 1, 1),      // single column
		graphgen.Skewed(rng, 3000, 9, 1.4), // 24-bit keys: three radix passes
	}
	for i := 0; i < 40; i++ {
		graphs = append(graphs, graphgen.Tiny(rng, 24))
	}
	for gi, a := range graphs {
		k := hilbertOrderFor(a.NumRows, a.NumCols)
		rm := RowMajorEdges(a)
		order := make([]int, a.NNZ())
		for p := range order {
			order[p] = p
		}
		key := func(p int) uint64 { return HilbertXY2D(k, uint32(rm.Row[p]), uint32(rm.Col[p])) }
		sort.SliceStable(order, func(i, j int) bool { return key(order[i]) < key(order[j]) })
		want := &HilbertEdges{}
		for _, p := range order {
			want.Row = append(want.Row, rm.Row[p])
			want.Col = append(want.Col, rm.Col[p])
			want.EID = append(want.EID, rm.EID[p])
			want.Val = append(want.Val, rm.Val[p])
		}
		got := Hilbert(a)
		if !slices.Equal(got.Row, want.Row) || !slices.Equal(got.Col, want.Col) ||
			!slices.Equal(got.EID, want.EID) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("graph %d (%dx%d, %d edges): radix order differs from the comparison sort", gi, a.NumRows, a.NumCols, a.NNZ())
		}
	}
}

// TestRadixSortByKeyIsStable covers what Hilbert cannot reach without
// duplicate edges: equal keys keep their input order.
func TestRadixSortByKeyIsStable(t *testing.T) {
	keys := []uint64{5, 1 << 20, 5, 0, 1 << 20, 5}
	got := radixSortByKey(keys, []int32{0, 1, 2, 3, 4, 5}, 21)
	if want := []int32{3, 0, 2, 5, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("radixSortByKey = %v, want %v", got, want)
	}
}

func TestHilbertImprovesLocality(t *testing.T) {
	// On a random graph, Hilbert order should have substantially lower
	// combined (row, col) jump distance than row-major order, which is
	// the mechanism behind the paper's locality claim.
	a := randGraph(t, 7, 256, 8)
	hil := Hilbert(a).Locality()
	rm := RowMajorEdges(a).Locality()
	if hil >= rm {
		t.Fatalf("Hilbert locality %d not better than row-major %d", hil, rm)
	}
}

func TestHilbertOrderFor(t *testing.T) {
	cases := map[int]uint{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := hilbertOrderFor(n, 1); got != want {
			t.Errorf("hilbertOrderFor(%d) = %d, want %d", n, got, want)
		}
	}
}

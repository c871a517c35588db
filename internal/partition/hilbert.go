package partition

import (
	"math/bits"

	"featgraph/internal/sparse"
)

// This file implements Hilbert-curve edge ordering (§III-C1). Edge-wise
// computations read both source and destination vertex features; visiting
// edges in Hilbert order keeps both coordinates local across a spectrum of
// cache granularities, unlike row-major order which is local only in the
// destination.

// HilbertD2XY converts a distance d along a Hilbert curve of order k
// (covering a 2^k × 2^k grid) to (x, y) coordinates. Standard iterative
// construction (Warren / Wikipedia formulation).
func HilbertD2XY(k uint, d uint64) (x, y uint32) {
	var rx, ry uint64
	t := d
	for s := uint64(1); s < 1<<k; s <<= 1 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		x64, y64 := uint64(x), uint64(y)
		x64, y64 = hilbertRot(s, x64, y64, rx, ry)
		x64 += s * rx
		y64 += s * ry
		x, y = uint32(x64), uint32(y64)
		t /= 4
	}
	return x, y
}

// HilbertXY2D converts (x, y) on a 2^k × 2^k grid to the distance along the
// Hilbert curve of order k: HilbertD2XY's inverse, four curve levels per
// table lookup. Ordering edges calls it once per edge, and the bit-serial
// form's branches on data bits dominated that build.
func HilbertXY2D(k uint, x, y uint32) uint64 {
	steps := (k + 3) / 4
	// Levels padded above k see (0,0), which emits digit 0 and toggles the
	// exchange; starting an odd padding exchanged cancels it.
	state := uint32(steps*4-k) & 1
	var d uint64
	for i := int(steps-1) * 4; i >= 0; i -= 4 {
		e := hilbertStep[state<<8|(x>>i&15)<<4|(y>>i&15)]
		d, state = d<<8|uint64(e>>2), uint32(e&3)
	}
	return d
}

// hilbertStep maps (state, 4 bits of x, 4 bits of y) to the 8 distance bits
// of those four levels and the state below them. The state is hilbertRot's
// two transforms carried as pending bits rather than applied to the
// coordinates — bit 0: x↔y exchanged, bit 1: lower bits complemented; the
// two commute, so two bits suffice.
var hilbertStep = func() (tab [1 << 10]uint16) {
	for i := range tab {
		swap, flip := uint32(i>>8)&1, uint32(i>>9)
		var d uint16
		for b := 7; b >= 4; b-- {
			bx, by := uint32(i>>b)&1^flip, uint32(i>>(b-4))&1^flip
			t := (bx ^ by) & swap
			rx, ry := bx^t, by^t
			d = d<<2 | uint16((3*rx)^ry)
			flip ^= rx &^ ry
			swap ^= ry ^ 1
		}
		tab[i] = d<<2 | uint16(flip<<1|swap)
	}
	return tab
}()

func hilbertRot(s, x, y, rx, ry uint64) (uint64, uint64) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// hilbertOrderFor returns the curve order needed to cover an n×m grid.
func hilbertOrderFor(n, m int) uint {
	side := max(n, m)
	if side <= 1 {
		return 1
	}
	return uint(bits.Len(uint(side - 1)))
}

// HilbertOrder returns a permutation of a's edges (as positions into a
// row-major edge enumeration) sorted by Hilbert distance of (dst, src).
// The returned slices give, for each visit position, the destination row,
// source column, edge id and value.
type HilbertEdges struct {
	Row []int32
	Col []int32
	EID []int32
	Val []float32
}

// Hilbert produces the edges of a in Hilbert-curve order. Edges are sorted
// by their 2k-bit curve distance with a stable LSD radix sort; equal keys
// (possible only if a stores duplicate edges) keep row-major order.
func Hilbert(a *sparse.CSR) *HilbertEdges {
	k := hilbertOrderFor(a.NumRows, a.NumCols)
	nnz := a.NNZ()
	keys := make([]uint64, nnz)
	pos := make([]int32, nnz)
	rows := make([]int32, nnz)
	for r := 0; r < a.NumRows; r++ {
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			rows[p], pos[p] = int32(r), p
			keys[p] = HilbertXY2D(k, uint32(r), uint32(a.ColIdx[p]))
		}
	}
	pos = radixSortByKey(keys, pos, 2*k)
	out := &HilbertEdges{
		Row: make([]int32, nnz),
		Col: make([]int32, nnz),
		EID: make([]int32, nnz),
		Val: make([]float32, nnz),
	}
	for i, p := range pos {
		out.Row[i] = rows[p]
		out.Col[i] = a.ColIdx[p]
		out.EID[i] = a.EID[p]
		out.Val[i] = a.Val[p]
	}
	return out
}

// radixSortByKey returns vals stably reordered by the low keyBits bits of the
// matching keys: least-significant digit first, radixBits bits per pass, so
// the cost is linear in len(keys) where a comparison sort pays a log factor
// and a closure call per comparison. keys is clobbered.
func radixSortByKey(keys []uint64, vals []int32, keyBits uint) []int32 {
	const radixBits = 11 // 2048 counters stay L1-resident
	keys2, vals2 := make([]uint64, len(keys)), make([]int32, len(vals))
	var next [1 << radixBits]int
	for shift := uint(0); shift < keyBits; shift += radixBits {
		clear(next[:])
		for _, key := range keys {
			next[(key>>shift)&(1<<radixBits-1)]++
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for i, key := range keys {
			d := (key >> shift) & (1<<radixBits - 1)
			keys2[next[d]], vals2[next[d]] = key, vals[i]
			next[d]++
		}
		keys, keys2, vals, vals2 = keys2, keys, vals2, vals
	}
	return vals
}

// Locality scores an edge visit order by summing |Δrow| + |Δcol| between
// consecutive edges — a proxy for cache misses on the two feature matrices.
// Lower is better. Exposed so tests and benches can compare orderings.
func (h *HilbertEdges) Locality() uint64 {
	var sum uint64
	for i := 1; i < len(h.Row); i++ {
		sum += absDiff(h.Row[i], h.Row[i-1]) + absDiff(h.Col[i], h.Col[i-1])
	}
	return sum
}

// RowMajorEdges lists a's edges in row-major (CSR) order with the same
// layout as Hilbert, for baseline comparison.
func RowMajorEdges(a *sparse.CSR) *HilbertEdges {
	nnz := a.NNZ()
	out := &HilbertEdges{
		Row: make([]int32, nnz),
		Col: append([]int32(nil), a.ColIdx...),
		EID: append([]int32(nil), a.EID...),
		Val: append([]float32(nil), a.Val...),
	}
	for r := 0; r < a.NumRows; r++ {
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			out.Row[p] = int32(r)
		}
	}
	return out
}

func absDiff(a, b int32) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

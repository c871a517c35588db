package harness

// Computed bytes moved per edge. These are counts from array sizes, not
// measurements: every index and feature element a kernel must touch is
// charged once per use at 4 bytes, as if no feature row were ever reused
// from cache. Per-row costs are spread over the graph's edges. They give
// the traffic a kernel would need with no locality at all, so
// achieved-bytes/s above the measured bandwidth means reuse, not error.

// SpMMCopySumBytesPerEdge is GCN aggregation at feature width d: per edge
// one column index and one source row; per destination row one row pointer
// and one output row.
func SpMMCopySumBytesPerEdge(rows, nnz, d int) float64 {
	return 4 + 4*float64(d) + perEdge(rows, nnz, 4+4*float64(d))
}

// SDDMMDotBytesPerEdge is dot-product attention at width d: per edge one
// column index, one edge id, a source row, a destination row and one
// output scalar (Hilbert order visits edges, not rows, so the destination
// row is charged per edge); per destination row one row pointer.
func SDDMMDotBytesPerEdge(rows, nnz, d int) float64 {
	return 4 + 4 + 8*float64(d) + 4 + perEdge(rows, nnz, 4)
}

// FusedAttnBytesPerEdge is the fused attention forward at width d: per
// edge one column index, one edge id, the source row (read for the score
// and again for the weighted sum) and the alpha and deriv writes; per
// destination row one row pointer, the destination feature row and the
// output row.
func FusedAttnBytesPerEdge(rows, nnz, d int) float64 {
	return 4 + 4 + 8*float64(d) + 8 + perEdge(rows, nnz, 4+8*float64(d))
}

func perEdge(rows, nnz int, bytesPerRow float64) float64 {
	return float64(rows) * bytesPerRow / float64(nnz)
}

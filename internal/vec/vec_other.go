//go:build !amd64 || race

package vec

// Other platforms, and the race detector (blind to memory that assembly
// touches), run each Go loop whole; sse false makes these stubs unreachable.
const sse = false

// avx2 false makes the row walks' AVX2 stubs unreachable too.
var avx2 = false

func add4SSE(o, a, b, c, d *float32, n int)                          { panic("vec: no SSE body") }
func axpySSE(o, a *float32, wa float32, n int)                       { panic("vec: no SSE body") }
func axpy2SSE(o, a, b *float32, wa, wb float32, n int)               { panic("vec: no SSE body") }
func axpy4SSE(o, a, b, c, d *float32, wa, wb, wc, wd float32, n int) { panic("vec: no SSE body") }
func dotRowsSSE(out, x *float32, xs int, idx *int32, m int, y *float32, n int) {
	panic("vec: no SSE body")
}
func dotEdgesSSE(out, x *float32, xs int, y *float32, ys, n int, cols, rows, eids *int32, m int, acc bool) {
	panic("vec: no SSE body")
}
func expShiftSumSSE(s *float32, n int, shift, sum float32) (done int, total float32) {
	panic("vec: no SSE body")
}
func mlpSumSSE(o, t, w *float32, d1, ws, n int, floor float32)       { panic("vec: no SSE body") }
func mlpMaxSSE(o, t, w *float32, d1, ws, n int, floor float32)       { panic("vec: no SSE body") }
func mlpMinSSE(o, t, w *float32, d1, ws, n int, floor float32)       { panic("vec: no SSE body") }
func mlp2SumSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32) { panic("vec: no SSE body") }
func mlp2MaxSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32) { panic("vec: no SSE body") }
func mlp2MinSSE(o, t1, t2, w *float32, d1, ws, n int, floor float32) { panic("vec: no SSE body") }
func maxUint32SSE(a *int32, n int) uint32                            { panic("vec: no SSE body") }
func sumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int) { panic("vec: no AVX2 body") }
func scaledSumRowsAVX2(o, data *float32, stride int, idx *int32, m, n int, eid *int32, w *float32) {
	panic("vec: no AVX2 body")
}

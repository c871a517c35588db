//go:build !amd64 || race

package vec

// Other platforms, and the race detector (blind to memory that assembly
// touches), run each Go loop whole; sse false makes these stubs unreachable.
const sse = false

func add4SSE(o, a, b, c, d *float32, n int)                          { panic("vec: no SSE body") }
func axpySSE(o, a *float32, wa float32, n int)                       { panic("vec: no SSE body") }
func axpy2SSE(o, a, b *float32, wa, wb float32, n int)               { panic("vec: no SSE body") }
func axpy4SSE(o, a, b, c, d *float32, wa, wb, wc, wd float32, n int) { panic("vec: no SSE body") }
func dotSSE(s *[4]float32, x, y *float32, n int)                     { panic("vec: no SSE body") }
func dot2SSE(s, t *[4]float32, x1, x2, y *float32, n int)            { panic("vec: no SSE body") }

//go:build !race

package vec

// sse selects vec_amd64.s: each body does the first n elements, n a positive
// multiple of 4 (of 8 for the dots, which add into the lanes s and t).
const sse = true

//go:noescape
func add4SSE(o, a, b, c, d *float32, n int)

//go:noescape
func axpySSE(o, a *float32, wa float32, n int)

//go:noescape
func axpy2SSE(o, a, b *float32, wa, wb float32, n int)

//go:noescape
func axpy4SSE(o, a, b, c, d *float32, wa, wb, wc, wd float32, n int)

//go:noescape
func dotSSE(s *[4]float32, x, y *float32, n int)

//go:noescape
func dot2SSE(s, t *[4]float32, x1, x2, y *float32, n int)

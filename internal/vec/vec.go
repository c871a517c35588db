// Package vec holds the float32 row kernels the CPU hot loops are made of:
// o += a, o += (a+b)+(c+d), o += wa·a, o += wa·a+wb·b,
// o += (wa·a+wb·b)+(wc·c+wd·d), and the 8-block dot product summed in four
// lanes, for one row or for two rows against a shared one.
//
// On amd64 each kernel runs an SSE2 loop (vec_amd64.s; SSE2 is the amd64
// baseline, so nothing is probed). Every lane evaluates the Go loop's
// per-element expression in the same order, with no fused multiply-add,
// under Go's default MXCSR (round to nearest, no flush-to-zero), so the
// result is the Go loop's to the bit; only a NaN's payload may differ.
// Elements past the last block (len mod 4, mod 8 for the dots) take the Go
// loop, which is also the whole body on other platforms and under the race
// detector, and what the tests compare against: each kernel's lower-case
// twin runs it alone when asm is false. Every operand is resliced to len(o)
// (len(x) for the dots) first, so one without that capacity panics with o
// untouched.
package vec

// Add adds a into o. It is Axpy with wa = 1: 1·a is a, bit for bit.
func Add(o, a []float32) { axpy(o, a, 1, sse) }

// Add4 adds (a+b)+(c+d) into o.
func Add4(o, a, b, c, d []float32) { add4(o, a, b, c, d, sse) }

func add4(o, a, b, c, d []float32, asm bool) {
	n := len(o)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		add4SSE(&o[0], &a[0], &b[0], &c[0], &d[0], f)
	}
	for ; f < n; f++ {
		o[f] += (a[f] + b[f]) + (c[f] + d[f])
	}
}

// Axpy adds wa·a into o.
func Axpy(o, a []float32, wa float32) { axpy(o, a, wa, sse) }

func axpy(o, a []float32, wa float32, asm bool) {
	n := len(o)
	a = a[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpySSE(&o[0], &a[0], wa, f)
	}
	for ; f < n; f++ {
		o[f] += wa * a[f]
	}
}

// Axpy2 adds wa·a + wb·b into o.
func Axpy2(o, a, b []float32, wa, wb float32) { axpy2(o, a, b, wa, wb, sse) }

func axpy2(o, a, b []float32, wa, wb float32, asm bool) {
	n := len(o)
	a, b = a[:n], b[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpy2SSE(&o[0], &a[0], &b[0], wa, wb, f)
	}
	for ; f < n; f++ {
		o[f] += wa*a[f] + wb*b[f]
	}
}

// Axpy4 adds (wa·a + wb·b) + (wc·c + wd·d) into o.
func Axpy4(o, a, b, c, d []float32, wa, wb, wc, wd float32) {
	axpy4(o, a, b, c, d, wa, wb, wc, wd, sse)
}

func axpy4(o, a, b, c, d []float32, wa, wb, wc, wd float32, asm bool) {
	n := len(o)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	f := 0
	if asm && n >= 4 {
		f = n &^ 3
		axpy4SSE(&o[0], &a[0], &b[0], &c[0], &d[0], wa, wb, wc, wd, f)
	}
	for ; f < n; f++ {
		o[f] += (wa*a[f] + wb*b[f]) + (wc*c[f] + wd*d[f])
	}
}

// Dot returns x·y over len(x) elements. Lane k sums x[f+k]·y[f+k] +
// x[f+k+4]·y[f+k+4] over the 8-blocks f (four chains: one running sum
// serializes on FP-add latency), the tail adds into lane 0, and the lanes
// combine as (s0+s1) + (s2+s3).
func Dot(x, y []float32) float32 { return dot(x, y, sse) }

func dot(x, y []float32, asm bool) float32 {
	y = y[:len(x)]
	var s [4]float32
	f := 0
	if asm && len(x) >= 8 {
		f = len(x) &^ 7
		dotSSE(&s, &x[0], &y[0], f)
	}
	if f < len(x) {
		dotGo(&s, x[f:], y[f:])
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// Dot2 returns Dot(x1, y) and Dot(x2, y), bit for bit, loading each block of
// y once for both.
func Dot2(x1, x2, y []float32) (float32, float32) { return dot2(x1, x2, y, sse) }

func dot2(x1, x2, y []float32, asm bool) (float32, float32) {
	x2, y = x2[:len(x1)], y[:len(x1)]
	var s, t [4]float32
	f := 0
	if asm && len(x1) >= 8 {
		f = len(x1) &^ 7
		dot2SSE(&s, &t, &x1[0], &x2[0], &y[0], f)
	}
	if f < len(x1) {
		dotGo(&s, x1[f:], y[f:])
		dotGo(&t, x2[f:], y[f:])
	}
	return (s[0] + s[1]) + (s[2] + s[3]), (t[0] + t[1]) + (t[2] + t[3])
}

// dotGo carries the lanes s on over x·y as Dot describes.
func dotGo(s *[4]float32, x, y []float32) {
	y = y[:len(x)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	f := 0
	for ; f+8 <= len(x); f += 8 {
		xb, yb := (*[8]float32)(x[f:f+8]), (*[8]float32)(y[f:f+8])
		s0 += xb[0]*yb[0] + xb[4]*yb[4]
		s1 += xb[1]*yb[1] + xb[5]*yb[5]
		s2 += xb[2]*yb[2] + xb[6]*yb[6]
		s3 += xb[3]*yb[3] + xb[7]*yb[7]
	}
	for ; f < len(x); f++ {
		s0 += x[f] * y[f]
	}
	*s = [4]float32{s0, s1, s2, s3}
}

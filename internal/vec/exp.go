package vec

import "math"

// Float32 exponentials for the fused attention's softmax, which pays one
// per edge with no staging to hide behind: a float64 math.Exp round trip
// would dominate its row loop. Expf32 is a Cephes-style pure-float32
// polynomial expf, accurate to a few ULPs — far inside the oracle's
// comparison tolerance (see oracle.DefaultTol and
// TestExpf32MatchesFloat64Exp).

// Argument bounds: exp(x) overflows float32 above ~88.72 and underflows to
// zero below ~-87.34 (subnormals excluded by the -87 cut, which keeps the
// 2^k scaling in the normal range).
const (
	expf32Log2e = 1.44269504088896341
	// ln2 split into a coarse and a correction part so r = x - k*ln2 is
	// computed without cancellation error (Cody-Waite reduction).
	expf32Ln2Hi = 0.693359375
	expf32Ln2Lo = -2.12194440e-4

	expf32OverflowX  = 88.72
	expf32UnderflowX = -87.0
)

// Expf32 returns e**x computed entirely in float32. NaN propagates; inputs
// past the overflow/underflow bounds saturate to +Inf/0 like math.Exp.
func Expf32(x float32) float32 {
	switch {
	case x != x: // NaN
		return x
	case x > expf32OverflowX:
		return float32(math.Inf(1))
	case x < expf32UnderflowX:
		return 0
	}
	// k = round(x / ln2); r = x - k*ln2 in [-ln2/2, ln2/2].
	kf := floorf32(float32(expf32Log2e)*x + 0.5)
	r := x - kf*float32(expf32Ln2Hi)
	r -= kf * float32(expf32Ln2Lo)
	// Degree-5 minimax polynomial for exp(r)-1-r (Cephes expf coefficients).
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	z := r*r*p + r + 1
	// Scale by 2^k via direct exponent construction. The argument bounds
	// put k in [-126, 128], and 2^128 is not a float32 (its bits are
	// +Inf's), so k = 128, x in [88.38, 88.72], scales by 2^127 and then
	// by 2, each product exact.
	k := int32(kf)
	if k > 127 {
		return z * math.Float32frombits(uint32(k+126)<<23) * 2
	}
	return z * math.Float32frombits(uint32(k+127)<<23)
}

// floorf32 is floor for the bounded arguments Expf32 produces (|x| < 2^31).
func floorf32(x float32) float32 {
	f := float32(int32(x))
	if f > x {
		f--
	}
	return f
}

// ExpShiftSum replaces every element of s with Expf32(s[i]−shift) and
// returns the sum of the results, added in ascending order from +0. This is
// the softmax's inner step — shift is the row maximum, so every argument is
// ≤ 0 and nothing overflows — in one traversal, so the scores are read and
// written once instead of three times (shift, exponentiate, reduce).
//
// The SSE body runs Expf32 on four lanes at once and adds the four results
// into the sum one at a time, in ascending order, so the sum keeps the Go
// loop's bits. A group of four with a lane that is NaN or above
// expSSEMaxX hands its first element to the Go loop, and SSE resumes after
// it. Lanes below the underflow cut are zeroed in registers: the Go loop
// adds Expf32's +0 for them, and adding +0 never changes the sum's bits,
// as the sum is only ever +0, positive, +Inf or NaN.
func ExpShiftSum(s []float32, shift float32) float32 { return expShiftSum(s, shift, sse) }

// expSSEMaxX is the largest argument the SSE lanes take: above it k can
// reach 128, which Expf32 scales in two steps.
const expSSEMaxX = 88

func expShiftSum(s []float32, shift float32, asm bool) (sum float32) {
	for i := 0; i < len(s); i++ {
		if asm && len(s)-i >= 4 {
			var done int
			done, sum = expShiftSumSSE(&s[i], (len(s)-i)&^3, shift, sum)
			if i += done; i == len(s) {
				break
			}
		}
		e := Expf32(s[i] - shift)
		s[i] = e
		sum += e
	}
	return sum
}

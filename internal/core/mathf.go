package core

import "math"

// Float32 math for kernel hot loops. The dgl-level exp32 routes through a
// float64 math.Exp round-trip, which is fine for the 3-pass edge softmax
// (one call per edge amid allocation-heavy staging) but dominates the fused
// attention kernel's inner loop, where every edge pays one exponential with
// no staging to hide behind. Expf32 is a Cephes-style pure-float32
// polynomial expf: branch-light, no float64 conversions, vectorization-
// friendly when applied over a row's score scratch (expShiftSumF32), and
// accurate to a few ULPs — far inside the oracle's comparison tolerance
// (see oracle.DefaultTol and TestExpf32MatchesFloat64Exp).

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
	// Scale by 2^k via direct exponent construction; k is in [-126, 128)
	// thanks to the argument bounds, so k+127 stays a valid biased exponent.
	return z * math.Float32frombits(uint32(int32(kf)+127)<<23)
}

// expShiftSumF32 replaces every element of s with Expf32(s[i]-shift) and
// returns the sum of the results. This is the softmax inner step — shift is
// the row maximum, so every argument is ≤ 0 and nothing overflows — fused
// into a single traversal so the scores scratch is read and written once
// instead of three times (shift, exponentiate, reduce). The polynomial body
// is written out in the loop rather than calling Expf32, which is past the
// inlining budget; TestExpf32MatchesFloat64Exp pins the two to the same bits.
func expShiftSumF32(s []float32, shift float32) float32 {
	var sum float32
	for i := range s {
		x := s[i] - shift
		switch {
		case x != x: // NaN propagates, into the sum too
			s[i] = x
			sum += x
			continue
		case x > expf32OverflowX:
			s[i] = float32(math.Inf(1))
			sum += s[i]
			continue
		case x < expf32UnderflowX:
			s[i] = 0
			continue
		}
		kf := floorf32(float32(expf32Log2e)*x + 0.5)
		r := x - kf*float32(expf32Ln2Hi)
		r -= kf * float32(expf32Ln2Lo)
		p := float32(1.9875691500e-4)
		p = p*r + 1.3981999507e-3
		p = p*r + 8.3334519073e-3
		p = p*r + 4.1665795894e-2
		p = p*r + 1.6666665459e-1
		p = p*r + 5.0000001201e-1
		e := (r*r*p + r + 1) * math.Float32frombits(uint32(int32(kf)+127)<<23)
		s[i] = e
		sum += e
	}
	return sum
}

// floorf32 is floor for the bounded arguments Expf32 produces (|x| < 2^31).
func floorf32(x float32) float32 {
	f := float32(int32(x))
	if f > x {
		f--
	}
	return f
}

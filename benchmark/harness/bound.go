package harness

import (
	"math"
	"sort"
)

// DefaultBound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression.
const DefaultBound = 0.10

// MaxBound is the widest bound the benchmark contract allows.
const MaxBound = 0.25

// Spread returns the run-to-run spread of one metric's values as a share
// of their median: the distance between the first and third quartile, as
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so it matches what the driver measures. With fewer
// than four values quartiles are meaningless and the full range is used.
func Spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	med := Median(s)
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	quart := func(k int) float64 { // k-th of 4-quantiles, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (quart(3) - quart(1)) / med
}

// BoundFor is the A/A rule that fixes a metric's regression bound from the
// spreads observed between runs of one binary: DefaultBound, widened to
// twice the largest observed spread rounded up to a multiple of 0.05, and
// never beyond MaxBound. ok is false when even MaxBound cannot hold twice
// the spread, in which case the metric cannot be an end-to-end metric.
func BoundFor(spreads ...float64) (bound float64, ok bool) {
	worst := 0.0
	for _, s := range spreads {
		worst = max(worst, s)
	}
	bound = max(DefaultBound, math.Ceil(2*worst/0.05-1e-9)*0.05)
	if bound > MaxBound+1e-9 {
		return MaxBound, false
	}
	return math.Round(bound*100) / 100, true
}

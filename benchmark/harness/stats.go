// Package harness holds the measurement machinery fgbench's workloads
// share: order statistics, the open-loop pacer, the span ring, computed
// byte counts, the bandwidth probe and the A/A bound rule. Nothing here
// imports featgraph, so every piece is testable with a fake clock.
package harness

import (
	"math"
	"sort"
	"time"
)

// Summary is the order statistics every timing is reported with.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// Quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of the samples at or below it.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank q-quantile. A percentile is only reported when at least
// ten samples lie beyond it.
func Beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// Median returns the median of xs (mean of the middle two when even)
// without reordering xs.
func Median(xs []float64) float64 {
	return Summarize(xs).Median
}

// Summarize returns the order statistics of xs without reordering it.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return Summary{N: n, Min: s[0], Q1: Quantile(s, 0.25), Median: med, Q3: Quantile(s, 0.75), Max: s[n-1]}
}

// Timed is one open-loop request outcome: when it was due (offset from
// the phase start) and its latency measured from that due time. A shed,
// failed or late request carries +Inf, so it sits beyond every percentile.
type Timed struct {
	Due     time.Duration
	Latency float64
}

// WindowedQuantile splits samples into consecutive windows by due time,
// takes the q-quantile of every window that has at least minBeyond samples
// beyond it, and returns the median over those windows with their count.
// One GC pause or scheduler stall lands in one window; the median over
// windows is what a run-to-run comparison can resolve.
func WindowedQuantile(samples []Timed, window time.Duration, q float64, minBeyond int) (median float64, windows int) {
	buckets := map[int][]float64{}
	for _, s := range samples {
		w := int(s.Due / window)
		buckets[w] = append(buckets[w], s.Latency)
	}
	var per []float64
	for _, lat := range buckets {
		if Beyond(len(lat), q) < minBeyond {
			continue
		}
		sort.Float64s(lat)
		per = append(per, Quantile(lat, q))
	}
	return Median(per), len(per)
}

// Ms converts a duration to float milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

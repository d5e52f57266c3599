package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := rank(len(s), p)
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The tolerance keeps p/100·n from rounding up past an exact integer.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder is the set of tail percentiles the benchmark may report,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule: the highest percentile of the
// ladder that still has at least ten samples beyond it. ok is false when
// not even the median qualifies (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// scalingExp is the empirical exponent of time in input size between two
// measurements: t grows as size^exp.
func scalingExp(sizeA, tA, sizeB, tB float64) float64 {
	return math.Log(tB/tA) / math.Log(sizeB/sizeA)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted values
// by the nearest-rank rule. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p/100 × n), computed so that a product that is a
// whole number in exact arithmetic (99.9% of 10,000) does not round up.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentileOf sorts a copy of values and returns its p-th percentile; 0
// for an empty slice.
func percentileOf(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, p)
}

// median is the middle value, or the mean of the middle two; 0 for an
// empty slice.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportable are the percentiles a report may quote, ascending.
var reportable = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest reportable percentile that leaves
// at least ten of n samples beyond it, and false when even the median
// does not.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range reportable {
		if beyond := n - nearestRank(p, n); beyond >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// ratio is num/den, and 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

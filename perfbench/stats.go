package main

import (
	"math"
	"sort"
)

// median is the middle of xs (the mean of the two middle values when the
// count is even); 0 for no samples.
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

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the p-th percentile's rank: a
// percentile is reported only when at least ten samples lie beyond it,
// otherwise one slow sample decides it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// latency summarizes one timing series the way the benchmark reports it:
// the median, the p99 when at least ten samples lie beyond it, and the
// sample count.
type latency struct {
	N       int
	P50     float64
	P99     float64
	P99Real bool // false: fewer than ten samples beyond the 99th percentile
}

func summarize(xs []float64) latency {
	l := latency{N: len(xs), P50: percentile(xs, 50), P99: percentile(xs, 99)}
	l.P99Real = beyond(len(xs), 99) >= 10
	return l
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

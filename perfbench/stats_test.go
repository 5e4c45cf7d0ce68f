package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// ramp returns 1..n in reverse order, so percentiles must sort.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(1000)
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The p99 is reported as real only with at least ten samples beyond it.
func TestSummarizeSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n      int
		beyond int
		real   bool
	}{
		{1000, 10, true},
		{999, 9, false},
		{1001, 10, true},
		{3000, 30, true},
		{100, 1, false},
		{0, 0, false},
	} {
		if got := beyond(c.n, 99); got != c.beyond {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, got, c.beyond)
		}
		s := summarize(ramp(c.n))
		if s.N != c.n || s.P99Real != c.real {
			t.Errorf("summarize(%d samples) = %+v, want N=%d P99Real=%v", c.n, s, c.n, c.real)
		}
	}
	s := summarize(ramp(1000))
	if s.P50 != 500 || s.P99 != 990 {
		t.Errorf("summarize(1..1000) p50/p99 = %v/%v, want 500/990", s.P50, s.P99)
	}
}

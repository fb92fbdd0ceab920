package main

import "testing"

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{19, 0},   // the median has only 9 samples beyond it
		{20, p50}, // ... and 10 here
		{39, p50},
		{40, p75},
		{99, p75},
		{100, p90},
		{199, p90},
		{200, p95},
		{999, p95},
		{1000, p99},
		{100000, p99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if pm := tailPercentile(tc.n); pm != 0 && beyond(tc.n, pm) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", tc.n, pm/10, beyond(tc.n, pm))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		pm   int
		want float64
	}{{p50, 5}, {p90, 9}, {p95, 10}, {p99, 10}, {1, 1}} {
		if got := percentile(xs, tc.pm); got != tc.want {
			t.Errorf("percentile(1..10, %d‰) = %g, want %g", tc.pm, got, tc.want)
		}
	}
	// 0.9*100 rounds up in floating point; rank arithmetic must not.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, p90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// prints, which is how an outside checker computes spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 11, 12, 13, 14, 100}, 10.75, 35.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

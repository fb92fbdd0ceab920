package main

import (
	"math"
	"sort"
)

// Percentiles are written in per-mille so that rank arithmetic stays in
// integers: 0.9*100 is 90.00000000000001 in floating point, and a ceiling
// taken over that would move p90 up one rank.
const (
	p50 = 500
	p75 = 750
	p90 = 900
	p95 = 950
	p99 = 990
)

// minBeyond is how many samples must lie above a percentile before it is
// reported as measured rather than extrapolated from a handful of ops.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of per-mille percentile pm
// among n sorted samples.
func rank(n, pm int) int {
	k := (pm*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank percentile pm of sorted samples.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), pm)-1]
}

// beyond counts the samples that lie above percentile pm among n.
func beyond(n, pm int) int { return n - rank(n, pm) }

// tailPercentile is the percentile rule: the highest of p99, p95, p90,
// p75 and p50 that has at least minBeyond samples above it among n, or 0
// when even the median has fewer.
func tailPercentile(n int) int {
	for _, pm := range []int{p99, p95, p90, p75, p50} {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), matching Python's statistics.median.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones an outside
// checker computes from the same values. A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

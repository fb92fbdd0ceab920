package ctmc

// Solve-path benchmarks gated by `make bench-compare`. Each solve builds
// its operators afresh (a chain keeps no solve state), so the series and
// passage benchmarks time whole calls.

import (
	"context"
	"testing"
)

func runSeries(b *testing.B, c *Chain, p0, times []float64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientSeries(p0, times, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientSeries(b *testing.B) {
	const k = 2000 // 2001 states, ~6k nonzeros: Fig 3/4 scale
	c := NewChain(k+1, benchChainRates(k))
	runSeries(b, c, c.PointMass(0), cdfGrid(40, 0.25))
}

// BenchmarkTransientDense propagates a uniform initial distribution over
// a 60 001-state chain (~180k nonzeros): full support from the first
// term, so every term scatters every stored entry, where a point mass
// stays on a narrow window.
func BenchmarkTransientDense(b *testing.B) {
	const k = 60000
	c := NewChain(k+1, benchChainRates(k))
	p0 := make([]float64, c.N)
	for i := range p0 {
		p0[i] = 1 / float64(c.N)
	}
	runSeries(b, c, p0, cdfGrid(8, 0.5))
}

// BenchmarkSteadyStateStiff measures the escalation ladder on a stiff
// birth–death chain tuned so Gauss–Seidel and power iteration reject
// within the sweep budget and the BiCGStab rung accepts: the full
// GS-fail + power-fail + Krylov-accept sequence is the steady cost of a
// stiff model, so it is what `make bench-compare` tracks.
func BenchmarkSteadyStateStiff(b *testing.B) {
	c := stiffChain(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(SteadyStateOptions{MaxIter: 50, DenseLimit: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstPassageCDF(b *testing.B) {
	c := NewChain(801, benchChainRates(800))
	times := cdfGrid(30, 1)
	p0 := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FirstPassageCDF(p0, []int{800}, times, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilySteadyStates solves a 24-point think sweep of a
// six-station PC LAN family (128 states) as one SteadyStates call: the
// rate sweep's kernel, run sequentially so its B/op does not depend on
// the core count. The family's transpose plan is made before the timer.
func BenchmarkFamilySteadyStates(b *testing.B) {
	fam := familyFrom(b, lanFamilySource(6))
	rates := sweepRates(fam, "think", thinkSweep(24))
	solve := func() {
		if err := fam.SteadyStates(context.Background(), rates, SteadyStateOptions{}, nil, func(int, []float64) {}); err != nil {
			b.Fatal(err)
		}
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

package ctmc

// Solve-path benchmarks gated by `make bench-compare`. Each solve builds
// its operators afresh (a chain keeps no solve state), so the series and
// passage benchmarks time whole calls; the workers sub-benchmarks show
// multi-core scaling of the transpose kernel.

import (
	"fmt"
	"runtime"
	"testing"
)

func benchSeriesChain(k, workers int) *Chain {
	c := NewChain(k+1, benchChainRates(k))
	c.Workers = workers
	return c
}

func runSeries(b *testing.B, c *Chain, points int, dt float64) {
	times := cdfGrid(points, dt)
	p0 := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientSeries(p0, times, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// runSeriesDense propagates a uniform initial distribution: full support
// from the first term, so the solve takes the parallel transpose kernel
// every term instead of the windowed scatter a point mass stays on.
func runSeriesDense(b *testing.B, c *Chain, points int, dt float64) {
	times := cdfGrid(points, dt)
	p0 := make([]float64, c.N)
	for i := range p0 {
		p0[i] = 1 / float64(c.N)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TransientSeries(p0, times, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientSeries(b *testing.B) {
	const k = 2000 // 2001 states, ~6k nonzeros: Fig 3/4 scale
	runSeries(b, benchSeriesChain(k, 0), 40, 0.25)
}

func BenchmarkTransientWorkers(b *testing.B) {
	const k = 60000 // ~180k nonzeros: above the parallel kernel threshold
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		// "=" keeps the worker count out of benchcmp's GOMAXPROCS-suffix
		// normalization (which strips a trailing -N). The dense initial
		// distribution keeps the adaptive dispatch on the pooled parallel
		// kernel — a point mass would take the windowed scatter at every
		// worker count and measure nothing but the scatter.
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			// More pool workers than schedulable threads measures contention,
			// not scaling: on a GOMAXPROCS=1 runner every variant degenerates
			// to the sequential kernel plus handoff overhead and the sweep
			// records a flat (or inverted) curve. Skip rather than record a
			// misleading point; benchcmp's plateau rule warns on the
			// remaining variants instead of failing the gate.
			if w > runtime.GOMAXPROCS(0) {
				b.Skipf("workers=%d exceeds GOMAXPROCS=%d; scaling not measurable", w, runtime.GOMAXPROCS(0))
			}
			runSeriesDense(b, benchSeriesChain(k, w), 8, 0.5)
		})
	}
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

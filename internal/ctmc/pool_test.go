package ctmc

// Pool and bit-identity tests for the parallel solve path: the property
// battery pins that TransientSeries and FirstPassageCDF produce
// bit-identical output at every worker count (forcing tiny chains down
// the parallel kernels), the lifecycle test pins that a solve's pool ends
// with the call, and the cancellation test pins that an interrupted
// series reports partial progress and leaves the chain fully usable.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/numeric/sparse"
	"repro/internal/runctx"
)

// forceParallel drops the parallel-kernel threshold to zero for the test
// so small chains take the pooled transpose path, restoring it on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	saved := sparse.ParallelNNZThreshold
	sparse.ParallelNNZThreshold = 0
	t.Cleanup(func() { sparse.ParallelNNZThreshold = saved })
}

// randomRates builds a random generator from an LCG stream: some states
// absorbing (empty Q rows), one state dense (transitions everywhere).
func randomRates(s *uint64, n int) map[[2]int]float64 {
	next := func() float64 {
		*s = *s*6364136223846793005 + 1442695040888963407
		return float64(*s>>11) / (1 << 53)
	}
	rates := map[[2]int]float64{}
	denseState := int(next() * float64(n))
	for i := 0; i < n; i++ {
		if i != denseState && next() < 0.25 {
			continue // absorbing state: empty generator row
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if i == denseState || next() < 0.4 {
				rates[[2]int{i, j}] = next()*3 + 0.01
			}
		}
	}
	return rates
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTransientAndPassageWorkersBitIdenticalProperty is the solver-level
// property battery: on randomized chains — empty rows, a dense row, and
// the 1×1 edge case — TransientSeries and FirstPassageCDF must be
// bit-identical across workers ∈ {1, 2, 4, 8}.
func TestTransientAndPassageWorkersBitIdenticalProperty(t *testing.T) {
	forceParallel(t)
	f := func(seed int64) bool {
		s := uint64(seed)
		n := 1 + int(s%24)
		rates := randomRates(&s, n)
		times := cdfGrid(5, 0.3)
		p0 := make([]float64, n)
		for i := range p0 {
			s = s*6364136223846793005 + 1442695040888963407
			p0[i] = float64(s >> 11)
		}

		ref := NewChain(n, rates) // Workers = 0: sequential scatter path
		refSeries, err := ref.TransientSeries(p0, times, 1e-9)
		if err != nil {
			t.Logf("seed %d: reference series: %v", seed, err)
			return false
		}
		var refCDF *PassageCDF
		if n > 1 {
			if refCDF, err = ref.FirstPassageCDF(p0, []int{n - 1}, times, 1e-9); err != nil {
				t.Logf("seed %d: reference CDF: %v", seed, err)
				return false
			}
		}

		for _, workers := range []int{1, 2, 4, 8} {
			c := NewChain(n, rates)
			c.Workers = workers
			series, err := c.TransientSeries(p0, times, 1e-9)
			if err != nil {
				t.Logf("seed %d workers=%d: %v", seed, workers, err)
				return false
			}
			for k := range refSeries {
				if !bitsEqual(series[k], refSeries[k]) {
					t.Logf("seed %d workers=%d: series diverged at grid point %d", seed, workers, k)
					return false
				}
			}
			if n > 1 {
				cdf, err := c.FirstPassageCDF(p0, []int{n - 1}, times, 1e-9)
				if err != nil {
					t.Logf("seed %d workers=%d: CDF: %v", seed, workers, err)
					return false
				}
				if !bitsEqual(cdf.Probs, refCDF.Probs) {
					t.Logf("seed %d workers=%d: CDF diverged", seed, workers)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSteadyStatePoolWorkersBitIdentical covers the pooled steady-state
// path (plan and pool built per call) at every worker count:
// bit-identical distributions to the sequential solve.
func TestSteadyStatePoolWorkersBitIdentical(t *testing.T) {
	forceParallel(t)
	rates := benchChainRates(150)
	ref := NewChain(151, rates)
	want, err := ref.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		c := NewChain(151, rates)
		c.Workers = workers
		got, err := c.SteadyState(SteadyStateOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("workers=%d: steady state diverged from sequential", workers)
		}
	}
}

// countdownCtx reports cancellation after a fixed number of Err polls,
// making mid-series interruption deterministic (TransientCtx polls once
// per uniformization term).
type countdownCtx struct {
	context.Context
	polls *int32
}

func (c countdownCtx) Err() error {
	if atomic.AddInt32(c.polls, -1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestTransientCancelMidSeriesLeavesPoolReusable(t *testing.T) {
	forceParallel(t)
	c := NewChain(101, benchChainRates(100))
	c.Workers = 4
	times := cdfGrid(6, 0.5)
	p0 := c.PointMass(0)
	full, err := c.TransientSeries(p0, times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	polls := int32(40) // enough terms to finish some grid points, not all
	_, err = c.TransientSeriesCtx(countdownCtx{context.Background(), &polls}, p0, times, 1e-9)
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("want *runctx.ErrCanceled, got %v", err)
	}
	if ec.Done <= 0 || ec.Done >= len(times) {
		t.Fatalf("cancellation reported Done=%d, want mid-series progress in (0,%d)", ec.Done, len(times))
	}
	partial, ok := ec.Partial.([][]float64)
	if !ok || len(partial) != ec.Done {
		t.Fatalf("Partial holds %T of len %d, want [][]float64 of len %d", ec.Partial, len(partial), ec.Done)
	}
	for k := range partial {
		if !bitsEqual(partial[k], full[k]) {
			t.Fatalf("partial prefix diverged at grid point %d", k)
		}
	}
	// The chain must remain fully usable: the next solve is bit-identical.
	again, err := c.TransientSeries(p0, times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for k := range full {
		if !bitsEqual(again[k], full[k]) {
			t.Fatalf("post-cancel solve diverged at grid point %d", k)
		}
	}
}

// TestConcurrentSolvesShareOnePool hammers one Workers > 1 chain from many
// goroutines (run under the CI -race job), each call running on its own
// pool: every concurrent series must be bit-identical to the sequential
// result.
func TestConcurrentSolvesShareOnePool(t *testing.T) {
	forceParallel(t)
	rates := benchChainRates(80)
	ref := NewChain(81, rates)
	times := cdfGrid(4, 0.4)
	want, err := ref.TransientSeries(ref.PointMass(0), times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(81, rates)
	c.Workers = 4
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				series, err := c.TransientSeries(c.PointMass(0), times, 1e-9)
				if err != nil {
					errs[g] = err
					return
				}
				for k := range want {
					if !bitsEqual(series[k], want[k]) {
						errs[g] = errors.New("concurrent series diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestSolvePoolEndsWithCall: a Workers > 1 solve runs on a worker pool
// that lives for that call alone, so the goroutine count is back at its
// baseline when each solve returns — no GC, finalizer or further call is
// needed to release it. The count is polled briefly, without a GC, to
// allow for workers that have signalled their exit but not yet finished.
func TestSolvePoolEndsWithCall(t *testing.T) {
	forceParallel(t)
	times := cdfGrid(3, 0.5)
	solves := []struct {
		name  string
		solve func(c *Chain) error
	}{
		{"TransientSeries", func(c *Chain) error {
			_, err := c.TransientSeries(c.PointMass(0), times, 1e-9)
			return err
		}},
		{"FirstPassageCDF", func(c *Chain) error {
			_, err := c.FirstPassageCDF(c.PointMass(0), []int{100}, times, 1e-9)
			return err
		}},
		{"SteadyState", func(c *Chain) error {
			_, err := c.SteadyState(SteadyStateOptions{})
			return err
		}},
	}
	for _, s := range solves {
		c := NewChain(101, benchChainRates(100))
		c.Workers = 4
		base := runtime.NumGoroutine()
		if err := s.solve(c); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after the call returned, baseline %d", s.name, n, base)
		}
	}
}

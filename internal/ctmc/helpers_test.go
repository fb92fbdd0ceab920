package ctmc

// Shared test helpers (random generators, Float64bits comparison, a
// deterministic cancelling context) and the mid-series cancellation
// test: an interrupted series reports partial progress and leaves the
// chain fully usable.

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/runctx"
)

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

func TestTransientCancelMidSeriesLeavesChainReusable(t *testing.T) {
	c := NewChain(101, benchChainRates(100))
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

// TestPassageCancelMidGridLeavesChainReusable pins FirstPassageCDFCtx's
// cancellation contract: the error names the grid points reached, its
// Partial is the CDF over exactly those points, bit-equal to the
// uncanceled CDF's prefix, and the next call on the chain is unaffected.
func TestPassageCancelMidGridLeavesChainReusable(t *testing.T) {
	c := NewChain(101, benchChainRates(100))
	times := cdfGrid(6, 0.5)
	p0, targets := c.PointMass(0), []int{100}
	full, err := c.FirstPassageCDF(p0, targets, times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	polls := int32(40) // enough terms to finish some grid points, not all
	_, err = c.FirstPassageCDFCtx(countdownCtx{context.Background(), &polls}, p0, targets, times, 1e-9)
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("want *runctx.ErrCanceled, got %v", err)
	}
	if ec.Op != "ctmc.first-passage" || ec.Unit != "grid points" {
		t.Errorf("cancellation is %q counting %q, want ctmc.first-passage counting grid points", ec.Op, ec.Unit)
	}
	if ec.Done <= 0 || ec.Done >= len(times) {
		t.Fatalf("cancellation reported Done=%d, want mid-grid progress in (0,%d)", ec.Done, len(times))
	}
	partial, ok := ec.Partial.(*PassageCDF)
	if !ok || len(partial.Times) != ec.Done || len(partial.Probs) != ec.Done {
		t.Fatalf("Partial is %T, want a *PassageCDF over %d points", ec.Partial, ec.Done)
	}
	if !bitsEqual(partial.Times, times[:ec.Done]) || !bitsEqual(partial.Probs, full.Probs[:ec.Done]) {
		t.Fatalf("partial CDF %v diverged from the full CDF's prefix %v", partial.Probs, full.Probs[:ec.Done])
	}
	again, err := c.FirstPassageCDF(p0, targets, times, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(again.Probs, full.Probs) {
		t.Fatal("post-cancel passage diverged from the first")
	}
}

package ode

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// decay is y' = -y with solution e^{-t}.
func decay(t float64, y, dst []float64) { dst[0] = -y[0] }

// oscillator is y” = -y as a first-order system; solution (cos t, -sin t).
func oscillator(t float64, y, dst []float64) {
	dst[0] = y[1]
	dst[1] = -y[0]
}

func TestGrid(t *testing.T) {
	g := Grid(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(g) != 5 {
		t.Fatalf("len = %d, want 5", len(g))
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-15 {
			t.Errorf("g[%d] = %g, want %g", i, g[i], want[i])
		}
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	sol, err := RK4(decay, []float64{1}, Grid(0, 5, 50), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range sol.T {
		want := math.Exp(-tm)
		if got := sol.Y[k][0]; math.Abs(got-want) > 1e-7 {
			t.Errorf("RK4 at t=%g: %g, want %g", tm, got, want)
		}
	}
}

func TestRK4Oscillator(t *testing.T) {
	sol, err := RK4(oscillator, []float64{1, 0}, Grid(0, 2*math.Pi, 100), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	final := sol.Final()
	if math.Abs(final[0]-1) > 1e-6 || math.Abs(final[1]) > 1e-6 {
		t.Errorf("oscillator after full period = %v, want [1 0]", final)
	}
}

func TestDormandPrinceExponentialDecay(t *testing.T) {
	sol, err := DormandPrince(decay, []float64{1}, Grid(0, 5, 10), DormandPrinceOptions{RelTol: 1e-9, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range sol.T {
		want := math.Exp(-tm)
		if got := sol.Y[k][0]; math.Abs(got-want) > 1e-7 {
			t.Errorf("DP at t=%g: %g, want %g", tm, got, want)
		}
	}
}

func TestDormandPrinceOscillatorEnergy(t *testing.T) {
	sol, err := DormandPrince(oscillator, []float64{1, 0}, Grid(0, 10, 20), DormandPrinceOptions{RelTol: 1e-8, AbsTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for k := range sol.T {
		y := sol.Y[k]
		energy := y[0]*y[0] + y[1]*y[1]
		if math.Abs(energy-1) > 1e-5 {
			t.Errorf("energy drift at t=%g: %g", sol.T[k], energy)
		}
	}
}

func TestDormandPrinceAdaptivityBeatsFixedBudget(t *testing.T) {
	// A stiff-ish fast transient followed by slow dynamics: adaptive
	// stepping should need far fewer evaluations than fixed RK4 at equal
	// accuracy.
	f := func(t float64, y, dst []float64) { dst[0] = -50 * (y[0] - math.Cos(t)) }
	grid := Grid(0, 3, 6)
	adaptive, err := DormandPrince(f, []float64{0}, grid, DormandPrinceOptions{RelTol: 1e-6, AbsTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RK4(f, []float64{0}, grid, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adaptive.Final()[0]-fixed.Final()[0]) > 1e-4 {
		t.Errorf("adaptive %g vs fixed %g diverge", adaptive.Final()[0], fixed.Final()[0])
	}
	if adaptive.Evals >= fixed.Evals {
		t.Errorf("adaptive used %d evals, fixed %d; expected adaptive to be cheaper", adaptive.Evals, fixed.Evals)
	}
}

func TestComponentExtraction(t *testing.T) {
	sol, err := RK4(oscillator, []float64{1, 0}, Grid(0, 1, 4), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c0 := sol.Component(0)
	if len(c0) != 5 {
		t.Fatalf("Component length = %d, want 5", len(c0))
	}
	if c0[0] != 1 {
		t.Errorf("Component(0)[0] = %g, want 1", c0[0])
	}
}

func TestRK4BadInputs(t *testing.T) {
	if _, err := RK4(decay, []float64{1}, []float64{0}, 0.1); err == nil {
		t.Error("single-point grid accepted")
	}
	if _, err := RK4(decay, []float64{1}, Grid(0, 1, 2), 0); err == nil {
		t.Error("zero hmax accepted")
	}
	if _, err := RK4(decay, []float64{1}, []float64{1, 0}, 0.1); err == nil {
		t.Error("descending grid accepted")
	}
}

func TestDormandPrinceBadInputs(t *testing.T) {
	if _, err := DormandPrince(decay, []float64{1}, []float64{0}, DormandPrinceOptions{}); err == nil {
		t.Error("single-point grid accepted")
	}
	if _, err := DormandPrince(decay, []float64{1}, []float64{1, 1}, DormandPrinceOptions{}); err == nil {
		t.Error("zero-span grid accepted")
	}
}

func TestDormandPrinceStepBudget(t *testing.T) {
	if _, err := DormandPrince(decay, []float64{1}, Grid(0, 1, 2), DormandPrinceOptions{MaxSteps: 1, InitStep: 1e-9, MaxStep: 1e-9}); err == nil {
		t.Error("expected step-budget error")
	}
}

// returnsWithin runs call on its own goroutine and fails t unless it
// returns within a few seconds, so a solver that never returns fails fast
// instead of hanging the test binary.
func returnsWithin(t *testing.T, call func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DormandPrince did not return within 5s")
	}
}

// TestDormandPrinceEmptyState: with no state there is no error norm (it
// was sqrt(0/0), which no step passed), so the integrator visits every
// grid point with the empty state and returns.
func TestDormandPrinceEmptyState(t *testing.T) {
	var sol *Solution
	var err error
	returnsWithin(t, func() {
		sol, err = DormandPrince(func(float64, []float64, []float64) {}, nil, Grid(0, 1, 2), DormandPrinceOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.T) != 3 || len(sol.Y) != 3 || sol.Steps != 0 {
		t.Fatalf("empty state: %d times, %d states, %d steps; want 3, 3, 0", len(sol.T), len(sol.Y), sol.Steps)
	}
	for k, y := range sol.Y {
		if len(y) != 0 {
			t.Errorf("Y[%d] = %v, want an empty state", k, y)
		}
	}
}

// TestDormandPrinceNaNDerivative: a derivative that is NaN (an imported
// model's fractional power of a negative value, say) makes every error
// estimate NaN. Each such step is rejected and shrinks h, and at MinStep
// the integration fails naming t instead of accepting a NaN state.
func TestDormandPrinceNaNDerivative(t *testing.T) {
	nan := func(_ float64, _, dst []float64) { dst[0] = math.NaN() }
	var err error
	returnsWithin(t, func() {
		_, err = DormandPrince(nan, []float64{1}, Grid(0, 1, 4), DormandPrinceOptions{})
	})
	if err == nil || !strings.Contains(err.Error(), "NaN") || !strings.Contains(err.Error(), "t=0") {
		t.Fatalf("err = %v, want a NaN error estimate named at t=0", err)
	}
}

// TestDormandPrinceNonFiniteGrid: a NaN or infinite grid point is an
// error before any step. A NaN end point used to make the step size NaN,
// so no step was accepted and the step budget, which counts accepted
// steps, never ran out: the loop spun until killed.
func TestDormandPrinceNonFiniteGrid(t *testing.T) {
	decay := func(_ float64, y, dst []float64) { dst[0] = -y[0] }
	grids := map[string][]float64{
		"end NaN":      Grid(0, math.NaN(), 4),
		"end +Inf":     Grid(0, math.Inf(1), 4),
		"interior NaN": {0, math.NaN(), 1},
		"start -Inf":   {math.Inf(-1), 0, 1},
	}
	for name, grid := range grids {
		t.Run(name, func(t *testing.T) {
			var err error
			visits := 0
			returnsWithin(t, func() {
				_, _, err = DormandPrinceVisit(decay, []float64{1}, grid, DormandPrinceOptions{}, func(int, []float64) { visits++ })
			})
			if err == nil || !strings.Contains(err.Error(), "grid point") {
				t.Fatalf("err = %v, want a grid point error", err)
			}
			if visits != 0 {
				t.Errorf("%d grid points visited before the error, want 0", visits)
			}
		})
	}
}

func TestLinearSystemAgainstClosedForm(t *testing.T) {
	// y1' = -2 y1 + y2, y2' = y1 - 2 y2; eigenvalues -1, -3.
	f := func(t float64, y, dst []float64) {
		dst[0] = -2*y[0] + y[1]
		dst[1] = y[0] - 2*y[1]
	}
	// y(0) = (1, 0) => y1 = (e^{-t}+e^{-3t})/2, y2 = (e^{-t}-e^{-3t})/2.
	sol, err := DormandPrince(f, []float64{1, 0}, Grid(0, 2, 8), DormandPrinceOptions{RelTol: 1e-9, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range sol.T {
		w1 := (math.Exp(-tm) + math.Exp(-3*tm)) / 2
		w2 := (math.Exp(-tm) - math.Exp(-3*tm)) / 2
		if math.Abs(sol.Y[k][0]-w1) > 1e-7 || math.Abs(sol.Y[k][1]-w2) > 1e-7 {
			t.Errorf("t=%g: got %v, want [%g %g]", tm, sol.Y[k], w1, w2)
		}
	}
}

// visitAll runs DormandPrinceVisit and copies every visited state, failing
// t unless the grid points arrive once each, in order.
func visitAll(t *testing.T, f Func, y0, grid []float64, opt DormandPrinceOptions) ([][]float64, int, int, error) {
	t.Helper()
	var ys [][]float64
	steps, evals, err := DormandPrinceVisit(f, y0, grid, opt, func(k int, y []float64) {
		if k != len(ys) {
			t.Fatalf("visited grid point %d after %d points", k, len(ys))
		}
		ys = append(ys, append([]float64(nil), y...))
	})
	return ys, steps, evals, err
}

// sameBits reports whether two trajectories are Float64bits-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			if math.Float64bits(a[k][i]) != math.Float64bits(b[k][i]) {
				return false
			}
		}
	}
	return true
}

// TestDormandPrinceVisitMatchesSolution: the visitor sees exactly the
// states DormandPrince stores, bit for bit and with the same step and
// evaluation counts, on a grid with repeated points (one of them the
// start); and a cancellation mid-grid leaves DormandPrince's partial
// Solution what it was — the uncancelled trajectory's prefix with T cut
// to match — and the visitor the same prefix.
func TestDormandPrinceVisitMatchesSolution(t *testing.T) {
	grid := []float64{0, 0, 0.5, 0.5, 1, 2.5, 2.5, 4}
	opt := DormandPrinceOptions{RelTol: 1e-9, AbsTol: 1e-12}
	sol, err := DormandPrince(oscillator, []float64{1, 0}, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	ys, steps, evals, err := visitAll(t, oscillator, []float64{1, 0}, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != len(grid) || !sameBits(ys, sol.Y) || steps != sol.Steps || evals != sol.Evals {
		t.Fatalf("visits (%d points, %d steps, %d evals) differ from the Solution (%d points, %d steps, %d evals)",
			len(ys), steps, evals, len(sol.Y), sol.Steps, sol.Evals)
	}
	if !sameBits(sol.Y[:1], sol.Y[1:2]) || !sameBits(sol.Y[2:3], sol.Y[3:4]) || !sameBits(sol.Y[5:6], sol.Y[6:7]) {
		t.Error("a repeated grid point has two states")
	}

	errStop := errors.New("stop")
	countdown := func(polls int) func() error {
		return func() error {
			if polls--; polls < 0 {
				return errStop
			}
			return nil
		}
	}
	const polls = 24
	opt.Cancel = countdown(polls)
	part, err := DormandPrince(oscillator, []float64{1, 0}, grid, opt)
	if !errors.Is(err, errStop) || part == nil {
		t.Fatalf("canceled DormandPrince = %v, %v; want a partial Solution and the Cancel error", part, err)
	}
	reached := len(part.Y)
	if reached < 4 || reached >= len(grid) {
		t.Fatalf("cancellation after %d polls reached %d of %d grid points; want a point mid-grid", polls, reached, len(grid))
	}
	if !sameBits(part.Y, sol.Y[:reached]) || !sameBits([][]float64{part.T}, [][]float64{grid[:reached]}) {
		t.Errorf("partial Solution (T %v) is not the trajectory's prefix over the grid points reached", part.T)
	}
	opt.Cancel = countdown(polls)
	ys, _, _, err = visitAll(t, oscillator, []float64{1, 0}, grid, opt)
	if !errors.Is(err, errStop) || !sameBits(ys, part.Y) {
		t.Errorf("canceled visits: %d points, err %v; want the partial Solution's %d and the Cancel error", len(ys), err, reached)
	}
}

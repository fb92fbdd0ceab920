// Package ode provides initial-value-problem integrators for the fluid
// (mean-field) semantics of GPEPA and for Bio-PEPA reaction ODEs:
// a fixed-step classical Runge–Kutta method and an adaptive
// Dormand–Prince 5(4) method with step-size control and dense sampling on a
// caller-supplied output grid.
package ode

import (
	"fmt"
	"math"
)

// Func is the right-hand side of an autonomous-or-not system y' = f(t, y).
// Implementations must write the derivative into dst (len(dst) == len(y))
// and must not retain either slice.
type Func func(t float64, y, dst []float64)

// Solution holds the trajectory sampled at the requested output times.
type Solution struct {
	T     []float64   // output times, ascending
	Y     [][]float64 // Y[k] is the state at T[k]
	Steps int         // accepted integrator steps
	Evals int         // right-hand-side evaluations
}

// At returns the state at output index k.
func (s *Solution) At(k int) []float64 { return s.Y[k] }

// Final returns the last sampled state.
func (s *Solution) Final() []float64 { return s.Y[len(s.Y)-1] }

// Component extracts the time series of state component i.
func (s *Solution) Component(i int) []float64 {
	out := make([]float64, len(s.Y))
	for k, y := range s.Y {
		out[k] = y[i]
	}
	return out
}

// Grid returns n+1 evenly spaced points covering [t0, t1].
func Grid(t0, t1 float64, n int) []float64 {
	if n < 1 {
		panic("ode: Grid needs at least one interval")
	}
	ts := make([]float64, n+1)
	h := (t1 - t0) / float64(n)
	for i := range ts {
		ts[i] = t0 + float64(i)*h
	}
	ts[n] = t1
	return ts
}

// RK4 integrates y' = f(t,y) from grid[0] to grid[len-1] with the classical
// fourth-order Runge–Kutta method, taking substeps of size at most hmax
// between consecutive grid points and recording the state at each grid
// point.
func RK4(f Func, y0 []float64, grid []float64, hmax float64) (*Solution, error) {
	if len(grid) < 2 {
		return nil, fmt.Errorf("ode: RK4 needs at least two grid points")
	}
	if hmax <= 0 {
		return nil, fmt.Errorf("ode: RK4 hmax must be positive, got %g", hmax)
	}
	n := len(y0)
	y := append([]float64(nil), y0...)
	sol := &Solution{T: append([]float64(nil), grid...)}
	sol.Y = append(sol.Y, append([]float64(nil), y...))
	k1, k2, k3, k4, tmp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	t := grid[0]
	for g := 1; g < len(grid); g++ {
		target := grid[g]
		if target < t {
			return nil, fmt.Errorf("ode: grid must be ascending (grid[%d]=%g < t=%g)", g, target, t)
		}
		for t < target {
			h := hmax
			if t+h > target {
				h = target - t
			}
			f(t, y, k1)
			for i := range tmp {
				tmp[i] = y[i] + 0.5*h*k1[i]
			}
			f(t+0.5*h, tmp, k2)
			for i := range tmp {
				tmp[i] = y[i] + 0.5*h*k2[i]
			}
			f(t+0.5*h, tmp, k3)
			for i := range tmp {
				tmp[i] = y[i] + h*k3[i]
			}
			f(t+h, tmp, k4)
			for i := range y {
				y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			}
			t += h
			sol.Steps++
			sol.Evals += 4
		}
		t = target
		sol.Y = append(sol.Y, append([]float64(nil), y...))
	}
	return sol, nil
}

// DormandPrinceOptions tunes the adaptive integrator.
type DormandPrinceOptions struct {
	RelTol   float64 // relative tolerance (default 1e-6)
	AbsTol   float64 // absolute tolerance (default 1e-9)
	InitStep float64 // initial step (default span/100)
	MinStep  float64 // smallest permitted step (default span*1e-12)
	MaxStep  float64 // largest permitted step (default span)
	MaxSteps int     // step budget (default 1e6)
	// Cancel, when non-nil, is polled before every integration step and
	// aborts with its error when it returns non-nil. Callers pass
	// ctx.Err so cancellation reaches the step loop without this package
	// importing context. On cancellation the partial Solution is
	// returned alongside the error, with T truncated to the grid points
	// actually reached (len(T) == len(Y)). A nil Cancel leaves the float
	// sequence untouched: runs are bit-identical.
	Cancel func() error
}

func (o DormandPrinceOptions) withDefaults(span float64) DormandPrinceOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.InitStep <= 0 {
		o.InitStep = span / 100
	}
	if o.MinStep <= 0 {
		o.MinStep = span * 1e-12
	}
	if o.MaxStep <= 0 {
		o.MaxStep = span
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1_000_000
	}
	return o
}

// Dormand–Prince 5(4) Butcher tableau.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	dpB5 = [7]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	dpB4 = [7]float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
)

// DormandPrince integrates y' = f(t, y) adaptively over the output grid and
// returns the state at each grid point. The error-per-step is controlled to
// satisfy |err_i| <= AbsTol + RelTol*max(|y_i|, |ynew_i|) componentwise.
// It is DormandPrinceVisit with a visitor that copies every grid state.
func DormandPrince(f Func, y0 []float64, grid []float64, opt DormandPrinceOptions) (*Solution, error) {
	sol := &Solution{Y: make([][]float64, 0, len(grid))}
	// The partial trajectory outlives only a cancellation, which the
	// collector sees through Cancel.
	canceled := false
	if cancel := opt.Cancel; cancel != nil {
		opt.Cancel = func() error {
			err := cancel()
			canceled = err != nil
			return err
		}
	}
	var err error
	sol.Steps, sol.Evals, err = DormandPrinceVisit(f, y0, grid, opt, func(_ int, y []float64) {
		sol.Y = append(sol.Y, append([]float64(nil), y...))
	})
	if err != nil && !canceled {
		return nil, err
	}
	sol.T = append([]float64(nil), grid[:len(sol.Y)]...)
	return sol, err
}

// DormandPrinceVisit is the Dormand–Prince loop. It integrates as
// DormandPrince does but stores no trajectory: visit(k, y) receives the
// state at grid[k], once per grid point and in grid order, in the
// integrator's own buffer, which visit must neither modify nor keep. It
// returns the accepted steps and right-hand-side evaluations, and
// DormandPrince's errors; after a cancellation the points visited are the
// partial result.
func DormandPrinceVisit(f Func, y0 []float64, grid []float64, opt DormandPrinceOptions, visit func(k int, y []float64)) (steps, evals int, err error) {
	if len(grid) < 2 {
		return 0, 0, fmt.Errorf("ode: DormandPrince needs at least two grid points")
	}
	span := grid[len(grid)-1] - grid[0]
	if span <= 0 {
		return 0, 0, fmt.Errorf("ode: DormandPrince grid span must be positive")
	}
	opt = opt.withDefaults(span)
	n := len(y0)
	// One backing array for the state, the seven stages and the three
	// step buffers.
	buf := make([]float64, 11*n)
	y := buf[:n:n]
	copy(y, y0)
	var k [7][]float64
	for i := range k {
		k[i] = buf[(i+1)*n : (i+2)*n : (i+2)*n]
	}
	ytmp, ynew, yerr := buf[8*n:9*n:9*n], buf[9*n:10*n:10*n], buf[10*n:]
	visit(0, y)

	t := grid[0]
	h := opt.InitStep
	gi := 1
	for gi < len(grid) {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return steps, evals, err
			}
		}
		if steps >= opt.MaxSteps {
			return steps, evals, fmt.Errorf("ode: DormandPrince exceeded %d steps at t=%g", opt.MaxSteps, t)
		}
		target := grid[gi]
		if t >= target {
			visit(gi, y)
			gi++
			continue
		}
		hitGrid := false
		if t+h >= target {
			h = target - t
			hitGrid = true
		}
		// Evaluate the seven stages.
		f(t, y, k[0])
		for s := 1; s < 7; s++ {
			for i := 0; i < n; i++ {
				acc := y[i]
				for j := 0; j < s; j++ {
					if a := dpA[s][j]; a != 0 {
						acc += h * a * k[j][i]
					}
				}
				ytmp[i] = acc
			}
			f(t+dpC[s]*h, ytmp, k[s])
		}
		evals += 7
		// Fifth-order solution and embedded error estimate.
		var errNorm float64
		for i := 0; i < n; i++ {
			var y5, y4 float64
			for s := 0; s < 7; s++ {
				y5 += dpB5[s] * k[s][i]
				y4 += dpB4[s] * k[s][i]
			}
			ynew[i] = y[i] + h*y5
			yerr[i] = h * (y5 - y4)
			sc := opt.AbsTol + opt.RelTol*math.Max(math.Abs(y[i]), math.Abs(ynew[i]))
			e := yerr[i] / sc
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if errNorm <= 1 || h <= opt.MinStep {
			// Accept the step.
			t += h
			copy(y, ynew)
			steps++
			if hitGrid || t >= target {
				visit(gi, y)
				gi++
			}
		}
		// PI-free standard step-size update with safety factor.
		factor := 5.0
		if errNorm > 0 {
			factor = 0.9 * math.Pow(errNorm, -0.2)
			if factor < 0.2 {
				factor = 0.2
			} else if factor > 5 {
				factor = 5
			}
		}
		h *= factor
		if h > opt.MaxStep {
			h = opt.MaxStep
		}
		if h < opt.MinStep {
			h = opt.MinStep
		}
	}
	return steps, evals, nil
}

package gpepa

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric/ode"
)

// This file implements GPAnalyser's reward measures: the client/server
// scalability example "rewards servers for satisfying requests within a
// given time period", which is an accumulated (integrated) action reward
// over the fluid trajectory.

// AccumulatedActionReward integrates the instantaneous rate of an action
// over the trajectory (trapezoidal rule): the expected number of
// completions in [0, T], i.e. the total reward when each completion earns
// one unit.
func (r *FluidResult) AccumulatedActionReward(action string) float64 {
	tp := r.ThroughputSeries(action)
	var total float64
	for k := 1; k < len(r.Times); k++ {
		dt := r.Times[k] - r.Times[k-1]
		total += dt * (tp[k-1] + tp[k]) / 2
	}
	return total
}

// AccumulatedStateReward integrates a weighted sum of local-state
// populations: weights maps LocalState to reward-per-unit-time per
// component in that state (e.g. power draw of an active server). The
// weighted sum runs in variable-index order, so the result does not
// depend on the map's iteration order; an unknown local state is an
// error naming the first one in (group, state) order.
func (r *FluidResult) AccumulatedStateReward(weights map[LocalState]float64) (float64, error) {
	type term struct {
		i int
		w float64
	}
	terms := make([]term, 0, len(weights))
	var unknown []LocalState
	for ls, w := range weights {
		if i, ok := r.System.Index[ls]; ok {
			terms = append(terms, term{i, w})
		} else {
			unknown = append(unknown, ls)
		}
	}
	if len(unknown) > 0 {
		ls := slices.MinFunc(unknown, func(a, b LocalState) int {
			return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.State, b.State))
		})
		return 0, fmt.Errorf("gpepa: reward references unknown local state %s:%s", ls.Group, ls.State)
	}
	slices.SortFunc(terms, func(a, b term) int { return cmp.Compare(a.i, b.i) })
	instant := func(x []float64) float64 {
		var v float64
		for _, t := range terms {
			v += t.w * x[t.i]
		}
		return v
	}
	var total float64
	for k := 1; k < len(r.Times); k++ {
		dt := r.Times[k] - r.Times[k-1]
		total += dt * (instant(r.X[k-1]) + instant(r.X[k])) / 2
	}
	return total, nil
}

// SteadyStateOptions tunes equilibrium detection.
type FluidSteadyOptions struct {
	// Tol is the infinity-norm derivative threshold (default 1e-8,
	// relative to total population).
	Tol float64
	// MaxHorizon bounds the search (default 1e6 time units).
	MaxHorizon float64
	// Step is the probe interval (default 10).
	Step float64
}

// SteadyState integrates until the vector field's infinity norm falls
// below Tol (scaled by the total population), returning the equilibrium
// populations and the time at which they were accepted.
func (fs *FluidSystem) SteadyState(opt FluidSteadyOptions) ([]float64, float64, error) {
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxHorizon <= 0 {
		opt.MaxHorizon = 1e6
	}
	if opt.Step <= 0 {
		opt.Step = 10
	}
	var totalPop float64
	for _, v := range fs.X0 {
		totalPop += v
	}
	if totalPop == 0 {
		return append([]float64(nil), fs.X0...), 0, nil
	}
	scale := opt.Tol * totalPop
	// Each probe integrates one Step from the current state on 8
	// intervals and keeps only the state it reaches.
	grid := ode.Grid(0, opt.Step, 8)
	x := append([]float64(nil), fs.X0...)
	next := make([]float64, len(x))
	dst := make([]float64, len(x))
	t := 0.0
	for t < opt.MaxHorizon {
		fs.Derivative(x, dst)
		var norm float64
		for _, v := range dst {
			if a := math.Abs(v); a > norm {
				norm = a
			}
		}
		if norm < scale {
			return x, t, nil
		}
		err := fs.integrate(context.Background(), x, grid, SolveOptions{}, func(k int, y []float64) {
			if k == len(grid)-1 {
				copy(next, y)
			}
		})
		if err != nil {
			return nil, 0, err
		}
		x, next = next, x
		t += opt.Step
	}
	return nil, 0, fmt.Errorf("gpepa: no equilibrium within horizon %g", opt.MaxHorizon)
}

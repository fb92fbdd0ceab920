package gpepa

import (
	"context"
	"fmt"
	"math"

	"repro/internal/numeric/ode"
	"repro/internal/par"
	"repro/internal/runctx"
)

// This file implements GPAnalyser's scalability experiments (the analysis
// behind clientServerScalability.gpepa, Fig 5): re-solve the fluid model
// while one group's population varies, recording an equilibrium measure
// per point.

// SweepPoint is one population sample.
type SweepPoint struct {
	Count float64
	// Throughput of the measured action at the solve horizon.
	Throughput float64
	// Final holds the full population vector at the horizon.
	Final []float64
}

// ScalabilitySweep solves the fluid model to the horizon for each
// population count of (group, component) and records the equilibrium
// throughput of the action. Each point keeps only its state at the
// horizon. Points are independent and solve in parallel on
// min(GOMAXPROCS, len(counts)) goroutines, assembled in sweep order, so
// the output is identical at any GOMAXPROCS.
func ScalabilitySweep(m *Model, group, component string, counts []float64, horizon float64, action string) ([]SweepPoint, error) {
	return ScalabilitySweepCtx(context.Background(), m, group, component, counts, horizon, action)
}

// ScalabilitySweepCtx is ScalabilitySweep with cooperative cancellation.
// Once ctx is done no point starts and running points stop before their
// next integration step; the sweep then returns a *runctx.ErrCanceled
// counting the points that finished.
func ScalabilitySweepCtx(ctx context.Context, m *Model, group, component string, counts []float64, horizon float64, action string) ([]SweepPoint, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("gpepa: empty sweep")
	}
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("gpepa: horizon must be finite and positive, got %g", horizon)
	}
	for _, c := range counts {
		if !(c >= 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("gpepa: population must be finite and non-negative, got %g", c)
		}
	}
	// Compile once: the sweep varies only a seed population, which enters
	// the fluid structure only through X0, so every point shares the
	// prototype's derived variables and transitions via WithCounts
	// instead of paying a BFS derivation per point.
	proto, err := Compile(m)
	if err != nil {
		return nil, err
	}
	grid := ode.Grid(0, horizon, 50) // read-only, shared by every point
	points, err := par.Map(ctx, len(counts), func(i int) (SweepPoint, error) {
		sys, err := proto.WithCounts(group, component, counts[i])
		if err != nil {
			return SweepPoint{}, err
		}
		final := make([]float64, len(sys.X0))
		err = sys.integrate(ctx, sys.X0, grid, SolveOptions{}, func(k int, x []float64) {
			if k == len(grid)-1 {
				copy(final, x)
			}
		})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("gpepa: count=%g: %w", counts[i], err)
		}
		return SweepPoint{
			Count:      counts[i],
			Throughput: sys.ActionThroughput(action, final),
			Final:      final,
		}, nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			done := 0
			for _, p := range points {
				if p.Final != nil {
					done++
				}
			}
			return nil, runctx.New("gpepa.sweep", cerr, done, len(counts), "points")
		}
		return nil, err
	}
	return points, nil
}

// Saturation locates the knee of a scalability sweep: the first count at
// which throughput stops improving by more than relTol relative to the
// previous point. It returns the index into the sweep, or -1 if the
// throughput is still climbing at the end.
func Saturation(points []SweepPoint, relTol float64) int {
	if relTol <= 0 {
		relTol = 0.01
	}
	for i := 1; i < len(points); i++ {
		prev := points[i-1].Throughput
		if prev <= 0 {
			continue
		}
		if (points[i].Throughput-prev)/prev < relTol {
			return i
		}
	}
	return -1
}

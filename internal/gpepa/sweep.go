package gpepa

import (
	"context"
	"fmt"

	"repro/internal/par"
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
// throughput of the action. Points are independent and solve in parallel
// on up to GOMAXPROCS goroutines, assembled in sweep order.
func ScalabilitySweep(m *Model, group, component string, counts []float64, horizon float64, action string) ([]SweepPoint, error) {
	return ScalabilitySweepWorkers(m, group, component, counts, horizon, action, 0)
}

// ScalabilitySweepWorkers is ScalabilitySweep with an explicit bound on
// the point fan-out (0 means GOMAXPROCS, 1 sequential), so CLI callers
// can plumb one worker budget through both the CTMC solvers and the
// fluid sweeps. Points are assembled in sweep order regardless, so the
// output is identical for any worker count.
func ScalabilitySweepWorkers(m *Model, group, component string, counts []float64, horizon float64, action string, workers int) ([]SweepPoint, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("gpepa: empty sweep")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("gpepa: horizon must be positive")
	}
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("gpepa: negative population %g", c)
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
	return par.Map(context.Background(), len(counts), workers, func(i int) (SweepPoint, error) {
		sys, err := proto.WithCounts(group, component, counts[i])
		if err != nil {
			return SweepPoint{}, err
		}
		res, err := sys.Solve(horizon, 50, SolveOptions{})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("gpepa: count=%g: %w", counts[i], err)
		}
		final := res.Final()
		return SweepPoint{
			Count:      counts[i],
			Throughput: sys.ActionThroughput(action, final),
			Final:      final,
		}, nil
	})
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

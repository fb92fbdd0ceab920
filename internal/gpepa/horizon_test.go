package gpepa

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNonFiniteHorizonRejected: every entry point that takes a horizon
// reports a NaN or infinite one as an error. Such a horizon used to pass
// the "horizon <= 0" checks: the fluid solves then spun on a NaN step
// size, the simulations fired reactions on a clock that never passes the
// horizon, and the sweep did the first on every core. Each call runs on
// a goroutine and fails the test if it has not returned within 5 s.
func TestNonFiniteHorizonRejected(t *testing.T) {
	m := MustParse(clientServerSrc)
	sys, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	counts := []float64{2, 5}
	calls := []struct {
		name string
		call func(h float64) error
	}{
		{"Solve", func(h float64) error { _, err := sys.Solve(h, 10, SolveOptions{}); return err }},
		{"SolveCtx", func(h float64) error { _, err := sys.SolveCtx(ctx, h, 10, SolveOptions{}); return err }},
		{"Simulate", func(h float64) error { _, err := sys.Simulate(h, 10, 1); return err }},
		{"SimulateCtx", func(h float64) error { _, err := sys.SimulateCtx(ctx, h, 10, 1); return err }},
		{"MeanOfSimulations", func(h float64) error { _, err := sys.MeanOfSimulations(h, 10, 2, 1); return err }},
		{"MeanOfSimulationsCtx", func(h float64) error { _, err := sys.MeanOfSimulationsCtx(ctx, h, 10, 2, 1, ""); return err }},
		{"EnsembleOfSimulations", func(h float64) error { _, err := sys.EnsembleOfSimulations(h, 10, 2, 1); return err }},
		{"EnsembleOfSimulationsCtx", func(h float64) error {
			_, err := sys.EnsembleOfSimulationsCtx(ctx, h, 10, 2, 1, "")
			return err
		}},
		{"ScalabilitySweep", func(h float64) error {
			_, err := ScalabilitySweep(m, "Servers", "Server", counts, h, "request")
			return err
		}},
		{"ScalabilitySweepCtx", func(h float64) error {
			_, err := ScalabilitySweepCtx(ctx, m, "Servers", "Server", counts, h, "request")
			return err
		}},
	}
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		for _, c := range calls {
			t.Run(fmt.Sprintf("%s/%g", c.name, h), func(t *testing.T) {
				done := make(chan error, 1)
				go func() { done <- c.call(h) }()
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), "horizon") {
						t.Fatalf("err = %v, want a horizon error", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("did not return within 5s")
				}
			})
		}
	}
}

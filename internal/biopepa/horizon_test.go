package biopepa

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
// the "horizon <= 0" checks: the ODE solve then spun on a NaN step size,
// and the SSA ran until the population absorbed and sampled its grid at
// NaN or +Inf times. Each call runs on a goroutine and fails the test if
// it has not returned within 5 s.
func TestNonFiniteHorizonRejected(t *testing.T) {
	m := MustParse(enzymeSrc)
	ctx := context.Background()
	calls := []struct {
		name string
		call func(h float64) error
	}{
		{"SolveODE", func(h float64) error { _, err := m.SolveODE(h, 10); return err }},
		{"SolveODECtx", func(h float64) error { _, err := m.SolveODECtx(ctx, h, 10); return err }},
		{"SimulateSSA", func(h float64) error { _, err := m.SimulateSSA(h, 10, 1); return err }},
		{"SimulateSSACtx", func(h float64) error { _, err := m.SimulateSSACtx(ctx, h, 10, 1); return err }},
		{"MeanSSA", func(h float64) error { _, err := m.MeanSSA(h, 10, 2, 1); return err }},
		{"MeanSSACtx", func(h float64) error { _, err := m.MeanSSACtx(ctx, h, 10, 2, 1); return err }},
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

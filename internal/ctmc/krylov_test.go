package ctmc

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

// stiffChain builds a birth–death chain whose rates span six orders of
// magnitude: the shape that starves both stationary iterations (their
// iteration counts scale with the stiffness ratio) while the Krylov
// stage converges in a few dozen iterations.
func stiffChain(n int) *Chain {
	rates := map[[2]int]float64{}
	for i := 0; i < n-1; i++ {
		rates[[2]int{i, i + 1}] = 1 + 1e6*float64(i)/float64(n)
		rates[[2]int{i + 1, i}] = 1 + 1e6*float64(n-i)/float64(n)
	}
	return NewChain(n, rates)
}

// TestSteadyStateKrylovStageAccepts pins the extended ladder: on a stiff
// chain with a starved sweep budget, Gauss–Seidel and power iteration
// are rejected, the BiCGStab rung accepts, and the per-stage metrics
// record exactly that. DenseLimit of 1 proves the answer did not come
// from the dense fallback.
func TestSteadyStateKrylovStageAccepts(t *testing.T) {
	c := stiffChain(400)
	c.Obs = obs.NewRegistry()
	pi, err := c.SteadyState(SteadyStateOptions{MaxIter: 50, DenseLimit: 1})
	if err != nil {
		t.Fatalf("ladder failed: %v", err)
	}
	var sum float64
	for i, v := range pi {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("pi[%d] = %g", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum(pi) = %g", sum)
	}
	// Detailed balance on the birth–death chain: pi_i·up_i = pi_{i+1}·down_i.
	for i := 0; i < c.N-1; i++ {
		up := 1 + 1e6*float64(i)/float64(c.N)
		down := 1 + 1e6*float64(c.N-i)/float64(c.N)
		if d := math.Abs(pi[i]*up - pi[i+1]*down); d > 1e-6 {
			t.Fatalf("detailed balance violated at %d: %g", i, d)
		}
	}
	for _, want := range []struct {
		stage, outcome string
		n              float64
	}{
		{"gauss-seidel", "rejected", 1},
		{"power-iteration", "rejected", 1},
		{"bicgstab", "accepted", 1},
		{"bicgstab", "rejected", 0},
	} {
		got := c.Obs.Counter("ctmc_steady_stages_total",
			obs.L("method", want.stage), obs.L("outcome", want.outcome))
		if got != want.n {
			t.Errorf("ctmc_steady_stages_total{method=%s,outcome=%s} = %g, want %g",
				want.stage, want.outcome, got, want.n)
		}
	}
}

// TestSteadyKrylovAgreesWithPowerIteration is the cross-solver property
// test: on random irreducible chains both accepted answers must agree —
// they approximate the same unique stationary distribution, and both
// stages verify the same ||pi·Q||_inf < sqrt(Tol) bound before accepting.
func TestSteadyKrylovAgreesWithPowerIteration(t *testing.T) {
	compared := 0
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		n := 3 + int(s%30)
		rates := map[[2]int]float64{}
		// Ring backbone guarantees irreducibility; extra random edges
		// break the ring's symmetry.
		for i := 0; i < n; i++ {
			rates[[2]int{i, (i + 1) % n}] = 0.1 + 3*next()
		}
		for e := 0; e < n; e++ {
			i, j := int(s%uint64(n)), int((s>>17)%uint64(n))
			if v := next(); i != j {
				rates[[2]int{i, j}] = 0.1 + 3*v
			}
		}
		solve := NewChain(n, rates).newSteadySolve(SteadyStateOptions{}.withDefaults())
		piK, attK, okK := solve.krylov(context.Background())
		if !okK {
			// Breakdown or non-convergence is a legitimate rejection (the
			// ladder escalates); it just yields nothing to compare.
			t.Logf("n=%d: krylov rejected: %s", n, attK.Err)
			return true
		}
		piP, attP, okP := solve.power(context.Background())
		if !okP {
			t.Logf("n=%d: power rejected: %s", n, attP.Err)
			return true
		}
		compared++
		for i := range piK {
			if math.Abs(piK[i]-piP[i]) > 1e-6 {
				t.Logf("n=%d: pi[%d] = %g (krylov) vs %g (power)", n, i, piK[i], piP[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if compared == 0 {
		t.Fatal("no case had both stages accept; the property was never exercised")
	}
}

package sparse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// stiffTridiag builds a diagonally dominant tridiagonal system with a
// rate spread of `spread` between the smallest and largest diagonal —
// the sparse shape of a stiff generator's normalized system.
func stiffTridiag(n int, spread float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		d := 2 + spread*float64(i)/float64(n)
		c.Add(i, i, d)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// bicgstab solves a·x = b the way ctmc's Krylov rung does: matrix-free,
// with the product routed through the plan/pool kernel when workers > 1
// and the sequential MulVecTo otherwise, preconditioned by diag(a). The
// kernel takes row dots of the matrix it is handed, so passing a itself
// yields a·x.
func bicgstab(a *CSR, x, b []float64, workers int, pool *Pool, opt IterOptions) (IterResult, error) {
	apply := MatVec(a.MulVecTo)
	if workers > 1 {
		plan := NewPlan(a, workers)
		apply = func(y, xv []float64) { VecMulAccumPlanT(a, y, xv, nil, 0, plan, pool) }
	}
	return BiCGStab(apply, x, b, a.Diag(), opt)
}

func TestBiCGStabSolvesStiffSystem(t *testing.T) {
	n := 200
	a := stiffTridiag(n, 1e6)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)) + 2
	}
	x := make([]float64, n)
	res, err := bicgstab(a, x, b, 1, nil, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence after %d iterations, residual %g", res.Iterations, res.Residual)
	}
	// Check the true residual, not the recursion's.
	r := a.MulVec(x)
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > 1e-9 {
			t.Fatalf("residual %g at row %d", d, i)
		}
	}
	// Reference: Gauss–Seidel on the same system.
	ref := make([]float64, n)
	if _, err := GaussSeidel(a, ref, b, IterOptions{Tol: 1e-13, MaxIter: 100000}); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - ref[i]); d > 1e-8*(1+math.Abs(ref[i])) {
			t.Fatalf("x[%d] = %g vs Gauss–Seidel %g", i, x[i], ref[i])
		}
	}
}

// TestBiCGStabWorkersBitIdentical extends the Float64bits battery to the
// Krylov solver: every operation except the matrix-vector product is
// sequential, and the product is bit-identical across plans, pools, and
// tiling, so the whole iteration — and the solution — must be too.
func TestBiCGStabWorkersBitIdentical(t *testing.T) {
	savedThreshold, savedTile := ParallelNNZThreshold, TileCols
	ParallelNNZThreshold, TileCols = 0, 8
	defer func() { ParallelNNZThreshold, TileCols = savedThreshold, savedTile }()
	pool := NewPool(4)
	defer pool.Close()

	f := func(seed int64) bool {
		s := uint64(seed)
		n := 2 + int(s%40)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			var off float64
			for j := 0; j < n; j++ {
				if i != j && next() < 0.3 {
					v := next()*2 - 1
					off += math.Abs(v)
					c.Add(i, j, v)
				}
			}
			c.Add(i, i, off+1+next()) // strictly dominant diagonal
		}
		a := c.ToCSR()
		b := make([]float64, n)
		for i := range b {
			b[i] = next()*4 - 2
		}
		solve := func(workers int, pl *Pool) []float64 {
			x := make([]float64, n)
			if _, err := bicgstab(a, x, b, workers, pl, IterOptions{Tol: 1e-12, MaxIter: 500}); err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return nil
			}
			return x
		}
		want := solve(1, nil)
		if want == nil {
			return true // breakdown: legitimate, just nothing to compare
		}
		for _, workers := range []int{2, 4, 8} {
			for _, pl := range []*Pool{nil, pool} {
				got := solve(workers, pl)
				if got == nil {
					return false // breakdown must not depend on dispatch
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Logf("workers=%d pooled=%v: x[%d] differs", workers, pl != nil, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBiCGStabBreakdownOnSingularSystem(t *testing.T) {
	n := 4
	zero := NewCOO(n, n).ToCSR() // A = 0: first search direction dies
	b := []float64{1, 0, 0, 0}
	x := make([]float64, n)
	_, err := bicgstab(zero, x, b, 1, nil, IterOptions{MaxIter: 10})
	if err == nil || !strings.Contains(err.Error(), "breakdown") {
		t.Fatalf("err = %v, want breakdown", err)
	}
}

func TestBiCGStabImmediateConvergenceAndEmpty(t *testing.T) {
	a := stiffTridiag(3, 0)
	x := a.MulVec([]float64{1, 2, 3})
	sol := []float64{1, 2, 3}
	res, err := bicgstab(a, sol, x, 1, nil, IterOptions{})
	if err != nil || !res.Converged || res.Iterations != 0 {
		t.Fatalf("exact guess: res=%+v err=%v", res, err)
	}
	res, err = BiCGStab(func(y, x []float64) {}, nil, nil, nil, IterOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("empty system: res=%+v err=%v", res, err)
	}
}

func TestBiCGStabCancel(t *testing.T) {
	a := stiffTridiag(100, 1e6)
	b := make([]float64, 100)
	b[0] = 1
	x := make([]float64, 100)
	cancelErr := errEarly{}
	res, err := bicgstab(a, x, b, 1, nil, IterOptions{Cancel: func() error { return cancelErr }})
	if err != cancelErr {
		t.Fatalf("err = %v, want the cancel error", err)
	}
	if res.Converged || res.Iterations != 0 {
		t.Fatalf("canceled solve reported res=%+v", res)
	}
}

type errEarly struct{}

func (errEarly) Error() string { return "canceled early" }

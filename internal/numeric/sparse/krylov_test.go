package sparse

import (
	"math"
	"strings"
	"testing"
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

// bicgstab solves a·x = b the way ctmc's Krylov rung does: matrix-free
// through MulVecTo, preconditioned by diag(a).
func bicgstab(a *CSR, x, b []float64, opt IterOptions) (IterResult, error) {
	return BiCGStab(a.MulVecTo, x, b, a.Diag(), opt)
}

func TestBiCGStabSolvesStiffSystem(t *testing.T) {
	n := 200
	a := stiffTridiag(n, 1e6)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)) + 2
	}
	x := make([]float64, n)
	res, err := bicgstab(a, x, b, IterOptions{Tol: 1e-12})
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

func TestBiCGStabBreakdownOnSingularSystem(t *testing.T) {
	n := 4
	zero := NewCOO(n, n).ToCSR() // A = 0: first search direction dies
	b := []float64{1, 0, 0, 0}
	x := make([]float64, n)
	_, err := bicgstab(zero, x, b, IterOptions{MaxIter: 10})
	if err == nil || !strings.Contains(err.Error(), "breakdown") {
		t.Fatalf("err = %v, want breakdown", err)
	}
}

func TestBiCGStabImmediateConvergenceAndEmpty(t *testing.T) {
	a := stiffTridiag(3, 0)
	x := a.MulVec([]float64{1, 2, 3})
	sol := []float64{1, 2, 3}
	res, err := bicgstab(a, sol, x, IterOptions{})
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
	res, err := bicgstab(a, x, b, IterOptions{Cancel: func() error { return cancelErr }})
	if err != cancelErr {
		t.Fatalf("err = %v, want the cancel error", err)
	}
	if res.Converged || res.Iterations != 0 {
		t.Fatalf("canceled solve reported res=%+v", res)
	}
}

type errEarly struct{}

func (errEarly) Error() string { return "canceled early" }

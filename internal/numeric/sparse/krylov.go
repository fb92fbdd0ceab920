package sparse

import (
	"fmt"
	"math"
)

// MatVec applies y = A·x into a caller-provided y. The Krylov solvers are
// matrix-free: callers wrap a CSR product, or compose one with a low-rank
// update (the steady-state normalization row) without materializing a
// second matrix.
type MatVec func(y, x []float64)

// BiCGStab solves the square linear system A·x = b with the stabilized
// bi-conjugate gradient method (van der Vorst), optionally Jacobi-
// preconditioned. Unlike Gauss–Seidel it handles the stiff, non-symmetric
// systems that arise from generator matrices with rate
// spreads of many orders of magnitude, where stationary iterations need
// iteration counts proportional to the stiffness ratio.
//
// x carries the initial guess in and the solution out. diag supplies the
// Jacobi preconditioner (the entries of diag(A)); zero entries fall back
// to 1 (identity preconditioning at that row), and a nil diag disables
// preconditioning entirely. Convergence is declared when ||b - A·x||_inf
// drops below Tol.
//
// The method terminates early with an error on the classical breakdowns
// (rho = 0, ⟨r̂,v⟩ = 0, omega = 0) and on NaN contamination; callers
// treat those like non-convergence and escalate. Cancel, Scratch, and
// MaxIter/Tol come from opt; the matrix-vector product is whatever apply
// does.
func BiCGStab(apply MatVec, x, b, diag []float64, opt IterOptions) (IterResult, error) {
	opt = opt.withDefaults()
	n := len(x)
	if len(b) != n || (diag != nil && len(diag) != n) {
		return IterResult{}, fmt.Errorf("sparse: BiCGStab dimension mismatch")
	}
	var res IterResult
	if n == 0 {
		res.Converged = true
		return res, nil
	}
	s := opt.Scratch
	r := s.Get(n)
	defer s.Put(r)
	rhat := s.Get(n)
	defer s.Put(rhat)
	v := s.Get(n)
	defer s.Put(v)
	p := s.Get(n)
	defer s.Put(p)
	phat := s.Get(n)
	defer s.Put(phat)
	sv := s.Get(n)
	defer s.Put(sv)
	shat := s.Get(n)
	defer s.Put(shat)
	t := s.Get(n)
	defer s.Put(t)

	// r = b - A·x, r̂ fixed to the initial residual.
	apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(rhat, r)
	clear(v)
	clear(p)
	res.Residual = normInf(r)
	if res.Residual < opt.Tol {
		res.Converged = true
		return res, nil
	}
	precond := func(dst, src []float64) {
		if diag == nil {
			copy(dst, src)
			return
		}
		for i := range dst {
			if d := diag[i]; d != 0 {
				dst[i] = src[i] / d
			} else {
				dst[i] = src[i]
			}
		}
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 0; it < opt.MaxIter; it++ {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return res, err
			}
		}
		rho1 := dot(rhat, r)
		if rho1 == 0 {
			return res, fmt.Errorf("sparse: BiCGStab breakdown (rho = 0) at iteration %d", it)
		}
		if it == 0 {
			copy(p, r)
		} else {
			beta := (rho1 / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rho1
		precond(phat, p)
		apply(v, phat)
		den := dot(rhat, v)
		if den == 0 {
			return res, fmt.Errorf("sparse: BiCGStab breakdown (rhat·v = 0) at iteration %d", it)
		}
		alpha = rho1 / den
		for i := range sv {
			sv[i] = r[i] - alpha*v[i]
		}
		res.Iterations = it + 1
		if rs := normInf(sv); rs < opt.Tol {
			for i := range x {
				x[i] += alpha * phat[i]
			}
			res.Residual = rs
			res.Converged = true
			return res, nil
		}
		precond(shat, sv)
		apply(t, shat)
		tt := dot(t, t)
		if tt == 0 {
			return res, fmt.Errorf("sparse: BiCGStab breakdown (t·t = 0) at iteration %d", it)
		}
		omega = dot(t, sv) / tt
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = sv[i] - omega*t[i]
		}
		res.Residual = normInf(r)
		if math.IsNaN(res.Residual) {
			return res, fmt.Errorf("sparse: BiCGStab produced NaN at iteration %d", it)
		}
		if res.Residual < opt.Tol {
			res.Converged = true
			return res, nil
		}
		if omega == 0 {
			return res, fmt.Errorf("sparse: BiCGStab breakdown (omega = 0) at iteration %d", it)
		}
	}
	return res, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func normInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > m || math.IsNaN(x) {
			m = x
		}
	}
	return m
}

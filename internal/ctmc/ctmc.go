// Package ctmc assembles continuous-time Markov chains from derived PEPA
// state spaces and solves them: steady-state distributions (iterative
// Gauss–Seidel with a dense LU fallback), transient distributions via
// uniformization with truncated Poisson weights, first-passage-time CDFs
// via the absorbing-state transform, and the standard PEPA reward measures
// (throughput, utilization).
package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/numeric/linalg"
	"repro/internal/numeric/poisson"
	"repro/internal/numeric/sparse"
	"repro/internal/obs"
	"repro/internal/pepa/derive"
	"repro/internal/runctx"
	"repro/internal/sparseutil"
)

// Chain is a CTMC: a generator matrix Q (CSR) plus the action-labelled
// rate matrices needed for throughput rewards.
//
// A Chain holds no solve state. Each solve derives what it needs from Q
// when it is called — Qᵀ, the uniformized DTMC, Poisson weight tables —
// and keeps none of it after it returns, so concurrent solves share
// nothing but the read-only chain. Each solve runs on the calling
// goroutine.
type Chain struct {
	N int
	// Q is the infinitesimal generator: Q[i][j] is the total rate from i to
	// j (i != j), and Q[i][i] = -sum of the row's off-diagonal rates.
	// Nothing derived from Q outlives a call, so Q may be replaced or
	// edited in place between solves (keeping ExitRate consistent with it).
	Q *sparse.CSR
	// ExitRate[i] is the total outgoing rate of state i.
	ExitRate []float64
	// ActionRate maps an action type to the per-state total rate at which
	// that action fires (for throughput).
	ActionRate map[string][]float64
	// Initial is the index of the initial state (0 for derived spaces).
	Initial int
	// Obs, when non-nil, receives solver metrics (stage iterations,
	// residuals, uniformization truncation depths, Poisson-table reuse).
	// Nil costs nothing.
	Obs *obs.Registry
}

// weightKey identifies a truncated Poisson weight table.
type weightKey struct{ lambda, eps float64 }

// maxWeightTables bounds the Poisson weight tables a call keeps, and a
// family's store: a uniform time grid needs exactly one table, an
// irregular one needs one per distinct step, and a pathological caller
// cycling through horizons gets the map reset instead of unbounded growth.
const maxWeightTables = 256

// FromStateSpace builds the CTMC of a derived PEPA state space. Each
// state's transitions, then its diagonal, go straight into the generator's
// row (sparse.Builder), so no coordinate list is built beside the chain.
func FromStateSpace(ss *derive.StateSpace) *Chain {
	n := ss.NumStates()
	b := sparse.NewBuilder(n, n, ss.NumTransitions()+n)
	exit := make([]float64, n)
	actRate := make(map[string][]float64, len(ss.ActionTypes))
	for _, a := range ss.ActionTypes {
		actRate[a] = make([]float64, n)
	}
	for s := 0; s < n; s++ {
		for _, tr := range ss.Trans[s] {
			b.Add(s, tr.To, tr.Rate)
			exit[s] += tr.Rate
			actRate[tr.Action][s] += tr.Rate
		}
		b.Add(s, s, -exit[s])
	}
	return &Chain{N: n, Q: b.CSR(), ExitRate: exit, ActionRate: actRate, Initial: 0}
}

// NewChain builds a CTMC directly from a dense rate map (tests, synthetic
// chains). rates[i][j] is the transition rate from i to j; diagonal keys
// are ignored (the diagonal is minus the row's exit rate), and a key
// outside the n states panics.
func NewChain(n int, rates map[[2]int]float64) *Chain {
	keys := make([][2]int, 0, len(rates))
	for k := range rates {
		if k[0] != k[1] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	b := sparse.NewBuilder(n, n, len(keys)+n)
	exit := make([]float64, n)
	row := 0 // every row before it has its diagonal
	for _, k := range keys {
		r := rates[k]
		if r < 0 {
			panic(fmt.Sprintf("ctmc: negative rate %g at %v", r, k))
		}
		for ; row < k[0] && row < n; row++ {
			b.Add(row, row, -exit[row])
		}
		b.Add(k[0], k[1], r) // panics on a key outside the n states
		exit[k[0]] += r
	}
	for ; row < n; row++ {
		b.Add(row, row, -exit[row])
	}
	return &Chain{N: n, Q: b.CSR(), ExitRate: exit, ActionRate: map[string][]float64{}}
}

// MaxExitRate returns the uniformization constant max_i |q_ii|.
func (c *Chain) MaxExitRate() float64 {
	var m float64
	for _, r := range c.ExitRate {
		if r > m {
			m = r
		}
	}
	return m
}

// SteadyStateOptions tunes the stationary solver.
type SteadyStateOptions struct {
	Tol       float64 // convergence tolerance (default 1e-12)
	MaxIter   int     // Gauss–Seidel sweep budget (default 20000)
	DenseOnly bool    // skip the iterative attempt (tests)
	// DenseLimit is the largest N for which the dense LU fallback is
	// attempted (default 2000).
	DenseLimit int
}

func (o SteadyStateOptions) withDefaults() SteadyStateOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20000
	}
	if o.DenseLimit <= 0 {
		o.DenseLimit = 2000
	}
	return o
}

// StageAttempt records one stage of the steady-state escalation chain
// (Gauss–Seidel -> power iteration -> BiCGStab -> dense LU) for diagnosis
// when the whole chain fails.
type StageAttempt struct {
	Method     string  // "gauss-seidel", "power-iteration", "bicgstab", "dense-lu"
	Iterations int     // iterations spent (0 when the stage never ran)
	Residual   float64 // final ||pi·Q||_inf (NaN when unavailable)
	Err        string  // why the stage was rejected
}

// ConvergenceError is the structured escalation trace returned when
// every steady-state stage fails: it names each attempted solver, the
// work it did, and why it was rejected, so a non-converging model is
// debuggable instead of opaque.
type ConvergenceError struct {
	N      int // chain size
	Stages []StageAttempt
}

func (e *ConvergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ctmc: steady-state failed on all %d stages (n=%d):", len(e.Stages), e.N)
	for _, s := range e.Stages {
		fmt.Fprintf(&b, "\n  %-15s", s.Method)
		if s.Iterations > 0 {
			fmt.Fprintf(&b, " iters=%d", s.Iterations)
		}
		if !math.IsNaN(s.Residual) {
			fmt.Fprintf(&b, " residual=%.3g", s.Residual)
		}
		fmt.Fprintf(&b, ": %s", s.Err)
	}
	return b.String()
}

// SteadyState solves pi·Q = 0, sum(pi) = 1 for an irreducible chain. It
// first runs normalized Gauss–Seidel on Qᵀ·piᵀ = 0, then power iteration
// on the uniformized DTMC (which handles chains too large or too stiff
// for Gauss–Seidel), then Jacobi-preconditioned BiCGStab on the
// normalized system (a Krylov method whose iteration count does not
// scale with the stiffness ratio the way the stationary iterations do),
// and finally falls back to a dense LU solve with the normalization
// condition replacing one equation. When every stage fails the returned
// error is a *ConvergenceError carrying the full escalation trace.
func (c *Chain) SteadyState(opt SteadyStateOptions) ([]float64, error) {
	return c.SteadyStateCtx(context.Background(), opt)
}

// SteadyStateCtx is SteadyState with cooperative cancellation: ctx is
// polled once per Gauss–Seidel sweep and per power iteration, and an
// interrupted solve returns a *runctx.ErrCanceled carrying the
// iterations done and the residual at interruption. An uncancelled
// context leaves the escalation chain bit-identical to SteadyState.
func (c *Chain) SteadyStateCtx(ctx context.Context, opt SteadyStateOptions) ([]float64, error) {
	opt = opt.withDefaults()
	if c.N == 0 {
		return nil, fmt.Errorf("ctmc: empty chain")
	}
	if c.N == 1 {
		return []float64{1}, nil
	}
	s := c.newSteadySolve(opt)
	var stages []StageAttempt
	if !opt.DenseOnly {
		for _, rung := range [...]func(*steadySolve, context.Context) ([]float64, StageAttempt, bool){
			(*steadySolve).gaussSeidel, (*steadySolve).power, (*steadySolve).krylov,
		} {
			pi, att, ok := rung(s, ctx)
			if cerr := ctx.Err(); cerr != nil && !ok {
				return nil, c.canceledStage(cerr, att)
			}
			c.recordStage(att, ok)
			if ok {
				return pi, nil
			}
			stages = append(stages, att)
		}
	}
	if c.N > opt.DenseLimit {
		stages = append(stages, StageAttempt{
			Method:   "dense-lu",
			Residual: math.NaN(),
			Err:      fmt.Sprintf("chain (n=%d) exceeds dense fallback limit %d", c.N, opt.DenseLimit),
		})
		return nil, &ConvergenceError{N: c.N, Stages: stages}
	}
	pi, err := s.dense()
	if err != nil {
		att := StageAttempt{Method: "dense-lu", Residual: math.NaN(), Err: err.Error()}
		c.recordStage(att, false)
		stages = append(stages, att)
		return nil, &ConvergenceError{N: c.N, Stages: stages}
	}
	c.recordStage(StageAttempt{Method: "dense-lu", Residual: math.NaN()}, true)
	return pi, nil
}

// canceledStage converts an interrupted stage attempt into the typed
// cancellation error (and counts it), preserving the iterations done
// and the residual at interruption for the partial report.
func (c *Chain) canceledStage(cause error, att StageAttempt) error {
	runctx.Record(c.Obs, "ctmc.steady-state", cause)
	err := runctx.New("ctmc.steady-state", cause, att.Iterations, 0, "iterations")
	err.Residual = att.Residual
	return err
}

// recordStage publishes one escalation-chain stage to the metrics
// registry. All Registry methods are nil-safe, so an uninstrumented
// chain pays only this call.
func (c *Chain) recordStage(att StageAttempt, ok bool) {
	if c.Obs == nil {
		return
	}
	outcome := "rejected"
	if ok {
		outcome = "accepted"
	}
	method := obs.L("method", att.Method)
	c.Obs.Inc("ctmc_steady_stages_total", method, obs.L("outcome", outcome))
	c.Obs.Add("ctmc_steady_iterations_total", float64(att.Iterations), method)
	if !math.IsNaN(att.Residual) {
		c.Obs.Set("ctmc_steady_residual", att.Residual, method)
	}
}

// steadySolve is the state of one SteadyState call: Qᵀ, which every rung
// reads, and one scratch arena, so a rejected rung's work vectors serve
// the next rung instead of growing the heap. None of it outlives the call.
type steadySolve struct {
	c       *Chain
	opt     SteadyStateOptions
	qt      *sparse.CSR
	scratch sparse.Scratch
}

func (c *Chain) newSteadySolve(opt SteadyStateOptions) *steadySolve {
	return &steadySolve{c: c, opt: opt, qt: c.Q.Transpose()}
}

// residual computes the acceptance residual ||piᵀ·Q||_inf of the rungs.
func (s *steadySolve) residual(pi []float64) float64 {
	y := s.scratch.Get(s.c.N)
	defer s.scratch.Put(y)
	s.c.Q.VecMulTo(y, pi)
	return linalg.NormInf(y)
}

// power runs power iteration on the uniformized DTMC P = I + Q/(1.1·q):
// the stationary distribution of P equals that of the CTMC, and the slack
// factor guarantees aperiodicity.
func (s *steadySolve) power(ctx context.Context) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "power-iteration", Residual: math.NaN()}
	opt := s.opt
	q := s.c.MaxExitRate()
	if q == 0 {
		att.Err = "zero uniformization rate (no transitions)"
		return nil, att, false
	}
	p := s.c.uniformized(q*1.1, nil)
	pi, res, err := sparse.PowerIteration(p, sparse.IterOptions{
		MaxIter: opt.MaxIter * 5, Tol: opt.Tol, Cancel: ctx.Err, Scratch: &s.scratch,
	})
	att.Iterations = res.Iterations
	if err != nil {
		att.Err = err.Error()
		return nil, att, false
	}
	if !res.Converged {
		att.Err = fmt.Sprintf("did not converge within %d iterations", opt.MaxIter*5)
		return nil, att, false
	}
	// Verify the CTMC residual before accepting.
	att.Residual = s.residual(pi)
	if att.Residual > math.Sqrt(opt.Tol) {
		att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
		return nil, att, false
	}
	return pi, att, true
}

// gaussSeidel runs Gauss–Seidel sweeps on Qᵀx = 0 with renormalization;
// the trivial solution is avoided by the normalization step.
func (s *steadySolve) gaussSeidel(ctx context.Context) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "gauss-seidel", Residual: math.NaN()}
	n, qt, opt := s.c.N, s.qt, s.opt
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	// One linear pass over the CSR entries instead of a per-row binary
	// search: the diagonal is dense in any irreducible generator.
	diag := s.scratch.Get(n)
	defer s.scratch.Put(diag)
	qt.DiagInto(diag)
	for i, d := range diag {
		if d == 0 {
			// Absorbing state: the chain is not irreducible; Gauss–Seidel
			// in this form cannot proceed.
			att.Err = fmt.Sprintf("zero diagonal at state %d (absorbing state; chain not irreducible)", i)
			return nil, att, false
		}
	}
	for it := 0; it < opt.MaxIter; it++ {
		if cerr := ctx.Err(); cerr != nil {
			att.Residual = s.residual(pi)
			att.Err = "canceled: " + cerr.Error()
			return nil, att, false
		}
		att.Iterations = it + 1
		var delta float64
		for i := 0; i < n; i++ {
			var acc float64
			for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
				j := qt.ColIdx[k]
				if j != i {
					acc -= qt.Val[k] * pi[j]
				}
			}
			nx := acc / diag[i]
			if nx < 0 {
				nx = 0
			}
			if d := math.Abs(nx - pi[i]); d > delta {
				delta = d
			}
			pi[i] = nx
		}
		if sum := linalg.Normalize1(pi); sum == 0 {
			att.Err = "iterate collapsed to the zero vector"
			return nil, att, false
		}
		if delta < opt.Tol {
			// Verify the residual ||piQ||_inf before accepting.
			att.Residual = s.residual(pi)
			if att.Residual < math.Sqrt(opt.Tol) {
				return pi, att, true
			}
			att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
			return nil, att, false
		}
	}
	att.Residual = s.residual(pi)
	att.Err = fmt.Sprintf("did not converge within %d sweeps", opt.MaxIter)
	return nil, att, false
}

// krylov runs Jacobi-preconditioned BiCGStab on the normalized
// steady-state system A·piᵀ = e_n, where A is Qᵀ with its last row
// replaced by the all-ones normalization row (the same system dense
// factorizes, but matrix-free and sparse): the product y = A·x is the
// Qᵀ product with y[n-1] overwritten by sum(x). A Krylov method's
// iteration count is governed by the spectrum, not the stiffness ratio,
// so this rung catches generators whose rate spreads starve both
// stationary iterations while n is far beyond the dense fallback limit.
func (s *steadySolve) krylov(ctx context.Context) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "bicgstab", Residual: math.NaN()}
	n, qt, opt, scratch := s.c.N, s.qt, s.opt, &s.scratch
	apply := func(y, x []float64) {
		qt.MulVecTo(y, x)
		var sum float64
		for _, v := range x {
			sum += v
		}
		y[n-1] = sum
	}
	diag := scratch.Get(n)
	defer scratch.Put(diag)
	qt.DiagInto(diag)
	// The normalization row's diagonal entry is 1; generator diagonals are
	// negative exit rates, which Jacobi handles sign and all.
	diag[n-1] = 1
	b := scratch.Get(n)
	defer scratch.Put(b)
	clear(b)
	b[n-1] = 1
	pi := make([]float64, n)
	res, err := sparse.BiCGStab(apply, pi, b, diag, sparse.IterOptions{
		Tol: opt.Tol, MaxIter: opt.MaxIter, Cancel: ctx.Err, Scratch: scratch,
	})
	att.Iterations = res.Iterations
	att.Residual = res.Residual
	if err != nil {
		att.Err = err.Error()
		return nil, att, false
	}
	if !res.Converged {
		att.Err = fmt.Sprintf("did not converge within %d iterations", opt.MaxIter)
		return nil, att, false
	}
	// Post-process exactly like the dense stage: reject NaN and genuinely
	// negative mass, forgive LU-scale negative roundoff, renormalize.
	for i, v := range pi {
		if math.IsNaN(v) {
			att.Err = fmt.Sprintf("produced NaN at state %d (singular system?)", i)
			return nil, att, false
		}
		if v < 0 && v > -1e-9 {
			pi[i] = 0
		} else if v < 0 {
			att.Err = fmt.Sprintf("produced negative probability %g at state %d (chain reducible?)", v, i)
			return nil, att, false
		}
	}
	if sum := linalg.Normalize1(pi); sum == 0 {
		att.Err = "solution collapsed to the zero vector"
		return nil, att, false
	}
	// Verify the CTMC residual before accepting, like every other rung.
	att.Residual = s.residual(pi)
	if att.Residual > math.Sqrt(opt.Tol) {
		att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
		return nil, att, false
	}
	return pi, att, true
}

// dense solves the dense system Qᵀ·piᵀ = 0 with the last equation
// replaced by sum(pi) = 1.
func (s *steadySolve) dense() ([]float64, error) {
	n, qt := s.c.N, s.qt
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
			a.Set(i, qt.ColIdx[k], qt.Val[k])
		}
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b[n-1] = 1
	pi, err := linalg.SolveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: dense steady-state solve: %w", err)
	}
	for i, v := range pi {
		if math.IsNaN(v) {
			// Both ordered branches below are false for NaN; without this
			// check a singular system would silently yield a NaN vector.
			return nil, fmt.Errorf("ctmc: steady-state produced NaN at state %d (singular system?)", i)
		}
		if v < 0 && v > -1e-9 {
			pi[i] = 0
		} else if v < 0 {
			return nil, fmt.Errorf("ctmc: steady-state produced negative probability %g at state %d (chain reducible?)", v, i)
		}
	}
	linalg.Normalize1(pi)
	return pi, nil
}

// Transient computes the state distribution at time t from the initial
// distribution p0 by uniformization:
//
//	p(t) = sum_k Poisson(q·t; k) · p0 · P^k,  P = I + Q/q,
//
// with q the uniformization rate and the Poisson sum truncated to capture
// 1-eps of the mass.
func (c *Chain) Transient(p0 []float64, t, eps float64) ([]float64, error) {
	return c.TransientCtx(context.Background(), p0, t, eps)
}

// TransientCtx is Transient with cooperative cancellation: ctx is
// polled once per uniformization term (each term costs a sparse
// matrix-vector product, so the poll is noise). An interrupted solve
// returns a *runctx.ErrCanceled reporting the terms summed so far.
func (c *Chain) TransientCtx(ctx context.Context, p0 []float64, t, eps float64) ([]float64, error) {
	if err := checkInitial(p0, c.N); err != nil {
		return nil, err
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("ctmc: time %g is not finite", t)
	}
	if t < 0 {
		return nil, fmt.Errorf("ctmc: negative time %g", t)
	}
	if eps <= 0 {
		eps = 1e-10
	}
	u := &uniformizer{c: c, q: c.MaxExitRate()}
	out := make([]float64, c.N)
	if err := u.step(ctx, slices.Clone(p0), make([]float64, c.N), out, t, eps); err != nil {
		return nil, err
	}
	return out, nil
}

// checkInitial rejects an initial distribution without one entry per
// state.
func checkInitial(p0 []float64, n int) error {
	if len(p0) != n {
		return fmt.Errorf("ctmc: initial distribution length %d != %d states", len(p0), n)
	}
	return nil
}

// uniformizer is the state of one transient call on the uniformized DTMC
// P = I + Q/q, with the rows of isTarget (nil for none) made absorbing:
// P, built by the first step that needs it, and the Poisson weight tables
// of the call's distinct steps, so the uniform steps of a grid share one
// table. None of it outlives the call.
type uniformizer struct {
	c        *Chain
	q        float64
	isTarget []bool
	p        *sparse.CSR
	tables   map[weightKey]*poisson.Weights
}

// operator returns P, building it on first use.
func (u *uniformizer) operator() *sparse.CSR {
	if u.p == nil {
		u.p = u.c.uniformized(u.q, u.isTarget)
	}
	return u.p
}

// weights returns the truncated Poisson(lambda) weight table, computed
// once per (lambda, eps) in the call.
func (u *uniformizer) weights(lambda, eps float64) (*poisson.Weights, error) {
	key := weightKey{lambda, eps}
	if w, ok := u.tables[key]; ok {
		u.c.Obs.Inc("ctmc_poisson_cache_total", obs.L("outcome", "hit"))
		return w, nil
	}
	u.c.Obs.Inc("ctmc_poisson_cache_total", obs.L("outcome", "miss"))
	w, err := poisson.Compute(lambda, eps)
	if err != nil {
		return nil, err
	}
	if u.tables == nil || len(u.tables) >= maxWeightTables {
		u.tables = make(map[weightKey]*poisson.Weights)
	}
	u.tables[key] = w
	return w, nil
}

// step propagates the distribution x over time dt into out. x and next
// are the term loop's two propagation buffers: x is clobbered, and next's
// contents on entry do not matter (it is cleared first, like out).
func (u *uniformizer) step(ctx context.Context, x, next, out []float64, dt, eps float64) error {
	c := u.c
	if u.q == 0 || dt == 0 {
		copy(out, x)
		return nil
	}
	w, err := u.weights(u.q*dt, eps)
	if err != nil {
		return err
	}
	p := u.operator()
	c.Obs.Inc("ctmc_transient_solves_total")
	c.Obs.Add("ctmc_uniformization_terms_total", float64(w.Right+1))
	c.Obs.Set("ctmc_uniformization_truncation_depth", float64(w.Right))
	// out is pure accumulation, and the windowed scatter relies on
	// everything outside next's dirty window being exact zero, so both
	// start zeroed.
	clear(next)
	clear(out)
	if k, cerr := uniformize(ctx, p, w, x, next, out); cerr != nil {
		runctx.Record(c.Obs, "ctmc.transient", cerr)
		return runctx.New("ctmc.transient", cerr, k, w.Right+1, "uniformization terms")
	}
	// Renormalize the truncation slack.
	linalg.Normalize1(out)
	return nil
}

// uniformize sums the Poisson-weighted uniformization terms
// acc += Σ_{k≤w.Right} w.Pmf(k)·x·P^k, with x starting as cur. cur and
// next are the two propagation buffers and are clobbered; next and acc
// must be zero on entry. It returns the number of terms summed and, when
// ctx is canceled between terms, ctx's error. Each term runs the windowed
// scatter, which fuses the Poisson accumulation into the product.
func uniformize(ctx context.Context, p *sparse.CSR, w *poisson.Weights, cur, next, acc []float64) (int, error) {
	n := len(cur)
	// lo/hi is the nonzero support window of cur; dirtyLo/dirtyHi bounds
	// what next may hold from its previous use as cur. Propagating the
	// windows keeps a concentrated iterate (a point mass spreading one
	// transition per term) at O(support) per term instead of O(n). All
	// skipped work is exact zeros, so the windows change no output bit.
	lo, hi := n, 0
	for i, v := range cur {
		if v != 0 {
			if i < lo {
				lo = i
			}
			hi = i + 1
		}
	}
	if lo >= hi {
		lo, hi = 0, 0
	}
	dirtyLo, dirtyHi := 0, 0
	for k := 0; k <= w.Right; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return k, cerr
		}
		pw := w.Pmf(k)
		var accTerm []float64
		if pw > 0 {
			accTerm = acc
		}
		if k == w.Right {
			if pw > 0 {
				for i := lo; i < hi; i++ {
					if xi := cur[i]; xi != 0 {
						acc[i] += pw * xi
					}
				}
			}
			break
		}
		if dirtyHi > dirtyLo {
			clear(next[dirtyLo:dirtyHi])
		}
		nlo, nhi := p.VecMulAccumScatter(next, cur, accTerm, pw, lo, hi)
		cur, next = next, cur
		dirtyLo, dirtyHi = lo, hi
		lo, hi = nlo, nhi
	}
	return w.Right + 1, nil
}

// TransientSeries evaluates the transient distribution on an ascending
// time grid, propagating incrementally from grid point to grid point
// (see walk) instead of solving each horizon from scratch.
func (c *Chain) TransientSeries(p0 []float64, times []float64, eps float64) ([][]float64, error) {
	return c.TransientSeriesCtx(context.Background(), p0, times, eps)
}

// TransientSeriesCtx is TransientSeries with cooperative cancellation.
// An interrupted run returns a *runctx.ErrCanceled whose Partial holds
// the prefix of grid distributions already propagated (out[:Done]),
// chained to the inner per-term cancellation for the full trace.
func (c *Chain) TransientSeriesCtx(ctx context.Context, p0 []float64, times []float64, eps float64) ([][]float64, error) {
	out := make([][]float64, len(times))
	u := &uniformizer{c: c, q: c.MaxExitRate()}
	err := u.walk(ctx, seriesGrid, p0, times, eps, func(i int, pt []float64) {
		out[i] = slices.Clone(pt)
	})
	if err != nil {
		var ec *runctx.ErrCanceled
		if errors.As(err, &ec) {
			ec.Partial = out[:ec.Done]
		}
		return nil, err
	}
	return out, nil
}

// gridName labels a grid walk's errors: the API name in grid validation
// errors, the operation of a cancellation, and what a failed step is.
type gridName struct{ api, op, step string }

var (
	seriesGrid  = gridName{"TransientSeries", "ctmc.transient-series", "transient step"}
	passageGrid = gridName{"FirstPassageCDF", "ctmc.first-passage", "passage transient step"}
)

// walk is the grid walker of TransientSeries and FirstPassageCDF. It
// propagates p0 across the ascending time grid incrementally,
// p(t_i) = Transient(p(t_{i-1}), t_i - t_{i-1}), which costs O(q·t_max)
// matrix-vector products in total instead of O(Σ q·t_i). Truncation error
// accumulates additively over the grid, so each step's eps is tightened
// by the number of points. visit sees each point's distribution in a
// buffer the walk reuses: a caller that keeps a point copies it, and one
// that reduces it to a scalar allocates nothing per point. An interrupted
// walk returns a *runctx.ErrCanceled whose Done counts the points visited.
func (u *uniformizer) walk(ctx context.Context, name gridName, p0, times []float64, eps float64, visit func(i int, pt []float64)) error {
	n := u.c.N
	if err := checkInitial(p0, n); err != nil {
		return err
	}
	if len(times) == 0 {
		return nil
	}
	if eps <= 0 {
		eps = 1e-10
	}
	stepEps := eps / float64(len(times))
	x, next, pt := slices.Clone(p0), make([]float64, n), make([]float64, n)
	prev := 0.0
	for i, t := range times {
		dt, err := gridStep(name.api, i, t, prev)
		if err != nil {
			return err
		}
		if err := u.step(ctx, x, next, pt, dt, stepEps); err != nil {
			var inner *runctx.ErrCanceled
			if errors.As(err, &inner) {
				return runctx.New(name.op, err, i, len(times), "grid points")
			}
			return fmt.Errorf("ctmc: %s to t=%g: %w", name.step, t, err)
		}
		visit(i, pt)
		x, pt = pt, x
		prev = t
	}
	return nil
}

// gridStep validates point i of a grid walker's time grid and returns the
// step to it from the previous point: every point must be finite (a NaN
// step would reach the Poisson weights as a NaN rate) and the grid must
// ascend. op names the walker in the error.
func gridStep(op string, i int, t, prev float64) (float64, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("ctmc: %s grid point t[%d]=%g is not finite", op, i, t)
	}
	dt := t - prev
	if dt < 0 {
		return 0, fmt.Errorf("ctmc: %s needs an ascending grid (t[%d]=%g < %g)", op, i, t, prev)
	}
	return dt, nil
}

// uniformized builds P = I + Q/q directly in CSR form, with the rows of
// isTarget (nil for none) made absorbing: such a row is the identity row,
// exactly what uniformizing an all-zero generator row gives. Q's rows are
// column-sorted and duplicate-free, so the build is one pass over Q: the
// off-diagonal mass is accumulated in ascending-column order, the
// diagonal 1-offDiag is emitted at its sorted position, and exact-zero
// values are dropped, just as assembling the entries through a
// sparse.Builder would.
func (c *Chain) uniformized(q float64, isTarget []bool) *sparse.CSR {
	n := c.N
	m := &sparse.CSR{
		Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, c.Q.NNZ()+n),
		Val:    make([]float64, 0, c.Q.NNZ()+n),
	}
	for i := 0; i < n; i++ {
		s, e := c.Q.RowPtr[i], c.Q.RowPtr[i+1]
		if isTarget != nil && isTarget[i] {
			s = e
		}
		var offDiag float64
		for k := s; k < e; k++ {
			if c.Q.ColIdx[k] != i {
				offDiag += c.Q.Val[k] / q
			}
		}
		d := 1 - offDiag
		emittedDiag := false
		for k := s; k < e; k++ {
			j := c.Q.ColIdx[k]
			if j == i {
				continue
			}
			if !emittedDiag && j > i {
				if d != 0 {
					m.ColIdx = append(m.ColIdx, i)
					m.Val = append(m.Val, d)
				}
				emittedDiag = true
			}
			if v := c.Q.Val[k] / q; v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		if !emittedDiag && d != 0 {
			m.ColIdx = append(m.ColIdx, i)
			m.Val = append(m.Val, d)
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// absorbingRate returns the uniformization rate of Q with the rows of
// isTarget made absorbing: the largest remaining row's off-diagonal sum,
// each summed in column order. A negative off-diagonal rate in such a row
// is an error (the absorbing transform would silently lose its mass).
func (c *Chain) absorbingRate(isTarget []bool) (float64, error) {
	var q float64
	for i := 0; i < c.N; i++ {
		if isTarget[i] {
			continue
		}
		var exit float64
		for k := c.Q.RowPtr[i]; k < c.Q.RowPtr[i+1]; k++ {
			if j := c.Q.ColIdx[k]; j != i {
				v := c.Q.Val[k]
				if v < 0 {
					return 0, fmt.Errorf("ctmc: malformed generator: negative off-diagonal rate %g at (%d,%d)", v, i, j)
				}
				exit += v
			}
		}
		if exit > q {
			q = exit
		}
	}
	return q, nil
}

// PointMass returns a distribution concentrated on state s.
func (c *Chain) PointMass(s int) []float64 {
	p := make([]float64, c.N)
	p[s] = 1
	return p
}

// Throughput returns the steady-state throughput of an action: the
// expected number of completions per unit time, sum_s pi(s)·rate_a(s).
func (c *Chain) Throughput(pi []float64, action string) (float64, error) {
	rates, ok := c.ActionRate[action]
	if !ok {
		return 0, fmt.Errorf("ctmc: unknown action type %q", action)
	}
	return linalg.Dot(pi, rates), nil
}

// Throughputs returns the steady-state throughput of every action type,
// keyed by action. Conformance checks use this to compare the exact chain
// against simulation estimates action-by-action.
func (c *Chain) Throughputs(pi []float64) map[string]float64 {
	out := make(map[string]float64, len(c.ActionRate))
	for a, rates := range c.ActionRate {
		out[a] = linalg.Dot(pi, rates)
	}
	return out
}

// Utilization returns the steady-state probability mass of the states
// selected by the predicate over state indices.
func (c *Chain) Utilization(pi []float64, selected []int) float64 {
	var u float64
	for _, s := range selected {
		u += pi[s]
	}
	return u
}

// PassageCDF computes the first-passage-time distribution from the source
// distribution p0 to the target set: targets are made absorbing and the
// CDF value at time t is the probability mass absorbed by t.
type PassageCDF struct {
	Times []float64
	Probs []float64
}

// FirstPassageCDF evaluates P(T_target <= t) on the given ascending time
// grid. Target states are transformed to absorbing states; if p0 already
// places mass on a target, that mass counts as passed at t=0. A generator
// with a negative off-diagonal rate is rejected with an error (it would
// silently lose probability mass in the absorbing transform).
func (c *Chain) FirstPassageCDF(p0 []float64, targets []int, times []float64, eps float64) (*PassageCDF, error) {
	return c.FirstPassageCDFCtx(context.Background(), p0, targets, times, eps)
}

// FirstPassageCDFCtx is FirstPassageCDF with cooperative cancellation
// (inherited from the transient-series propagation). An interrupted
// evaluation returns a *runctx.ErrCanceled whose Partial is the
// *PassageCDF over the grid prefix already reached.
func (c *Chain) FirstPassageCDFCtx(ctx context.Context, p0 []float64, targets []int, times []float64, eps float64) (*PassageCDF, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("ctmc: empty passage target set")
	}
	isTarget := make([]bool, c.N)
	for _, s := range targets {
		if s < 0 || s >= c.N {
			return nil, fmt.Errorf("ctmc: target state %d out of range", s)
		}
		isTarget[s] = true
	}
	q, err := c.absorbingRate(isTarget)
	if err != nil {
		return nil, err
	}
	u := &uniformizer{c: c, q: q, isTarget: isTarget}
	// The walk runs on the absorbing generator, so each point reduces to
	// its absorbed mass on the spot: bit-identical to reducing
	// TransientSeries on that generator, with no per-point distribution.
	cdf := &PassageCDF{Times: append([]float64(nil), times...), Probs: make([]float64, len(times))}
	err = u.walk(ctx, passageGrid, p0, times, eps, func(i int, pt []float64) {
		cdf.Probs[i] = absorbedMass(pt, isTarget)
	})
	if err != nil {
		var ec *runctx.ErrCanceled
		if errors.As(err, &ec) {
			ec.Partial = &PassageCDF{Times: append([]float64(nil), times[:ec.Done]...), Probs: append([]float64(nil), cdf.Probs[:ec.Done]...)}
		}
		return nil, err
	}
	return cdf, nil
}

// absorbedMass sums the probability mass sitting on target states,
// clamped to [0,1]. Clamp01 also maps NaN to 0, so a poisoned transient
// solve cannot leak NaN into the CDF (it shows up as missing mass
// instead).
func absorbedMass(pt []float64, isTarget []bool) float64 {
	var mass float64
	for s, v := range pt {
		if isTarget[s] {
			mass += v
		}
	}
	return sparseutil.Clamp01(mass)
}

// Quantile returns the earliest grid time at which the CDF reaches p, or
// +Inf if it never does on the grid.
func (c *PassageCDF) Quantile(p float64) float64 {
	for i, v := range c.Probs {
		if v >= p {
			return c.Times[i]
		}
	}
	return math.Inf(1)
}

// Mean estimates the mean passage time by trapezoidal integration of the
// complementary CDF over the grid (a lower bound if the CDF has not
// reached 1 by the final grid point).
func (c *PassageCDF) Mean() float64 {
	var m float64
	for i := 1; i < len(c.Times); i++ {
		dt := c.Times[i] - c.Times[i-1]
		surv0 := 1 - c.Probs[i-1]
		surv1 := 1 - c.Probs[i]
		m += dt * (surv0 + surv1) / 2
	}
	return m
}

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
	"runtime"
	"sort"
	"strings"
	"sync"

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
type Chain struct {
	N int
	// Q is the infinitesimal generator: Q[i][j] is the total rate from i to
	// j (i != j), and Q[i][i] = -sum of the row's off-diagonal rates.
	//
	// The solvers memoize operators derived from Q (see solveCache).
	// Replacing Q with a new matrix is detected automatically; mutating the
	// stored matrix in place is not supported — call InvalidateSolveCache
	// after doing so (see docs/PERFORMANCE.md for the full contract).
	Q *sparse.CSR
	// ExitRate[i] is the total outgoing rate of state i.
	ExitRate []float64
	// ActionRate maps an action type to the per-state total rate at which
	// that action fires (for throughput).
	ActionRate map[string][]float64
	// Initial is the index of the initial state (0 for derived spaces).
	Initial int
	// Obs, when non-nil, receives solver metrics (stage iterations,
	// residuals, uniformization truncation depths, cache hit rates).
	// Nil costs nothing.
	Obs *obs.Registry
	// Workers bounds the goroutines the solve kernels use for
	// matrix-vector products (<= 1 means sequential). Every parallel
	// kernel is bit-identical to its sequential twin, so Workers changes
	// wall-clock time only, never a single output bit.
	Workers int

	// mu guards cache and pool: chains may be shared across goroutines
	// (the makespan fan-out, conformance sweeps).
	mu    sync.Mutex
	cache *solveCache
	// pool is the persistent worker pool the parallel kernels dispatch
	// on, created lazily by the first Workers > 1 solve (or shared from
	// the parent chain by absorbingChain, in which case poolOwned is false
	// and the parent owns its lifecycle). An owned pool is shut down by
	// InvalidateSolveCache and by the finalizer installed at creation, so
	// dropping a chain never strands its worker goroutines.
	pool      *sparse.Pool
	poolOwned bool
	// finalizerSet records that the shutdownPool finalizer is installed
	// (SetFinalizer panics if installed twice, and pool regrowth creates
	// a second pool over the chain's lifetime).
	finalizerSet bool
	// noSolveCache disables all memoization (tests and the cached-vs-
	// uncached benchmarks; the zero value — caching on — is the API).
	noSolveCache bool
	// family, when non-nil, is the ChainFamily this chain was assembled
	// by. Members route Poisson weight lookups and absorbing-transform
	// assembly through the family's shared caches (both are exact to
	// share: weights depend only on (lambda, eps), and the absorbing
	// plan is pattern-validated per member).
	family *ChainFamily
}

// solveCache memoizes the operators the hot solve path derives from Q:
// Qᵀ for the steady-state stages, the uniformized DTMC P = I + Q/q per
// uniformization rate (plus its transpose, built lazily for the parallel
// kernels), the truncated Poisson weight tables per (lambda, eps) — shared
// across the uniform-dt steps of a TransientSeries grid — and the last
// absorbing chain built by FirstPassageCDF. The cache is keyed to the
// identity and nonzero count of Q, so swapping in a different generator
// rebuilds everything.
type solveCache struct {
	q   *sparse.CSR // the generator these operators were derived from
	nnz int

	qt      *sparse.CSR
	uni     map[float64]*sparse.CSR // uniformization rate -> P
	uniT    map[float64]*sparse.CSR // uniformization rate -> Pᵀ
	weights map[weightKey]*poisson.Weights
	// plans memoizes the nnz-balanced row partitions of the parallel
	// kernels per (operand matrix, workers), so the per-term dispatch
	// costs a map lookup instead of a fresh round of binary searches.
	plans map[planKey]*sparse.Plan

	passageKey     string
	passageChain   *Chain
	passageTargets []bool
}

type weightKey struct{ lambda, eps float64 }

type planKey struct {
	m       *sparse.CSR
	workers int
}

// maxWeightTables bounds the Poisson weight memo: a uniform time grid needs
// exactly one table, an irregular one needs one per distinct step, and a
// pathological caller cycling through horizons gets the map reset instead
// of unbounded growth.
const maxWeightTables = 256

// InvalidateSolveCache drops every memoized solve operator and shuts down
// the chain's owned worker pool (goroutine counts return to baseline
// before it returns). Callers that mutate c.Q in place (rather than
// replacing it, which is detected) must call this before the next solve.
// The invalidation cascades to the memoized absorbing passage chain, so
// its operators and pool are released too.
func (c *Chain) InvalidateSolveCache() {
	c.mu.Lock()
	sc := c.cache
	c.cache = nil
	pool, owned := c.pool, c.poolOwned
	c.pool, c.poolOwned = nil, false
	c.mu.Unlock()
	if owned {
		pool.Close()
	}
	if sc != nil && sc.passageChain != nil {
		sc.passageChain.InvalidateSolveCache()
	}
}

// shutdownPool releases the owned worker pool; it is both the tail of
// InvalidateSolveCache's pool handling and the finalizer installed when
// the pool is created, so a chain dropped without an explicit invalidate
// never strands its worker goroutines.
func (c *Chain) shutdownPool() {
	c.mu.Lock()
	pool, owned := c.pool, c.poolOwned
	c.pool, c.poolOwned = nil, false
	c.mu.Unlock()
	if owned {
		pool.Close()
	}
}

// solvePool returns the chain's persistent worker pool for a solve with
// the given worker count, creating it lazily on first use. The pool runs
// workers-1 pinned goroutines — the solving goroutine itself executes the
// final partition of every dispatch — and is replaced (old one closed) if
// a later solve asks for more workers than it has. Returns nil for
// workers <= 1: the kernels treat a nil pool as inline execution.
func (c *Chain) solvePool(workers int) *sparse.Pool {
	if workers <= 1 {
		return nil
	}
	size := workers - 1
	c.mu.Lock()
	if c.pool != nil && (!c.poolOwned || c.pool.Size() >= size) {
		p := c.pool
		c.mu.Unlock()
		return p
	}
	old := c.pool
	p := sparse.NewPool(size)
	c.pool = p
	c.poolOwned = true
	installFinalizer := !c.finalizerSet
	c.finalizerSet = true
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if installFinalizer {
		runtime.SetFinalizer(c, (*Chain).shutdownPool)
	}
	return p
}

// planCached returns the memoized nnz-balanced row partition of m for the
// given worker count, planning it on first use. Plans are cached next to
// the operator they partition (the uniformized transpose, Qᵀ), so the
// per-term dispatch of a transient series costs a map lookup.
func (c *Chain) planCached(m *sparse.CSR, workers int) *sparse.Plan {
	if c.noSolveCache {
		return sparse.NewPlan(m, workers)
	}
	key := planKey{m: m, workers: workers}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.cacheLocked()
	if pl, ok := sc.plans[key]; ok {
		return pl
	}
	if sc.plans == nil {
		sc.plans = make(map[planKey]*sparse.Plan, 2)
	}
	pl := sparse.NewPlan(m, workers)
	sc.plans[key] = pl
	return pl
}

// cacheLocked returns the live cache for the current Q, rebuilding it when
// Q was replaced. Callers must hold c.mu.
func (c *Chain) cacheLocked() *solveCache {
	if c.cache == nil || c.cache.q != c.Q || c.cache.nnz != c.Q.NNZ() {
		c.cache = &solveCache{
			q:       c.Q,
			nnz:     c.Q.NNZ(),
			uni:     make(map[float64]*sparse.CSR, 2),
			uniT:    make(map[float64]*sparse.CSR, 2),
			weights: make(map[weightKey]*poisson.Weights),
		}
	}
	return c.cache
}

// uniformizedCached returns P = I + Q/q, memoized per uniformization rate.
func (c *Chain) uniformizedCached(q float64) *sparse.CSR {
	if c.noSolveCache {
		return c.uniformized(q)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.cacheLocked()
	if p, ok := sc.uni[q]; ok {
		c.Obs.Inc("ctmc_unicache_total", obs.L("outcome", "hit"))
		return p
	}
	c.Obs.Inc("ctmc_unicache_total", obs.L("outcome", "miss"))
	p := c.uniformized(q)
	sc.uni[q] = p
	return p
}

// uniformizedTransposeCached returns Pᵀ for the memoized P = I + Q/q,
// built on first use by a Workers > 1 solve.
func (c *Chain) uniformizedTransposeCached(q float64) *sparse.CSR {
	if c.noSolveCache {
		return c.uniformized(q).Transpose()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.cacheLocked()
	if pt, ok := sc.uniT[q]; ok {
		return pt
	}
	p, ok := sc.uni[q]
	if !ok {
		p = c.uniformized(q)
		sc.uni[q] = p
	}
	pt := p.Transpose()
	sc.uniT[q] = pt
	return pt
}

// transposedQCached returns Qᵀ, memoized.
func (c *Chain) transposedQCached() *sparse.CSR {
	if c.noSolveCache {
		return c.Q.Transpose()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.cacheLocked()
	if sc.qt == nil {
		sc.qt = c.Q.Transpose()
	}
	return sc.qt
}

// poissonCached returns the truncated Poisson(lambda) weight table,
// memoized per (lambda, eps): every uniform-dt step of a TransientSeries
// grid shares one table instead of recomputing it per grid point.
func (c *Chain) poissonCached(lambda, eps float64) (*poisson.Weights, error) {
	if c.noSolveCache {
		return poisson.Compute(lambda, eps)
	}
	key := weightKey{lambda, eps}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.cacheLocked()
	if w, ok := sc.weights[key]; ok {
		c.Obs.Inc("ctmc_poisson_cache_total", obs.L("outcome", "hit"))
		return w, nil
	}
	if c.family != nil {
		if w, ok := c.family.poisson(key); ok {
			c.Obs.Inc("ctmc_poisson_cache_total", obs.L("outcome", "family-hit"))
			sc.weights[key] = w
			return w, nil
		}
	}
	c.Obs.Inc("ctmc_poisson_cache_total", obs.L("outcome", "miss"))
	w, err := poisson.Compute(lambda, eps)
	if err != nil {
		return nil, err
	}
	if len(sc.weights) >= maxWeightTables {
		sc.weights = make(map[weightKey]*poisson.Weights)
	}
	sc.weights[key] = w
	if c.family != nil {
		c.family.storePoisson(key, w)
	}
	return w, nil
}

// FromStateSpace builds the CTMC of a derived PEPA state space.
func FromStateSpace(ss *derive.StateSpace) *Chain {
	n := ss.NumStates()
	coo := sparse.NewCOO(n, n, ss.NumTransitions()+n)
	exit := make([]float64, n)
	actRate := map[string][]float64{}
	for _, a := range ss.ActionTypes {
		actRate[a] = make([]float64, n)
	}
	for s := 0; s < n; s++ {
		for _, tr := range ss.Trans[s] {
			coo.Add(s, tr.To, tr.Rate)
			exit[s] += tr.Rate
			actRate[tr.Action][s] += tr.Rate
		}
		coo.Add(s, s, -exit[s])
	}
	return &Chain{N: n, Q: coo.ToCSR(), ExitRate: exit, ActionRate: actRate, Initial: 0}
}

// NewChain builds a CTMC directly from a dense rate map (tests, synthetic
// chains). rates[i][j] is the transition rate from i to j.
func NewChain(n int, rates map[[2]int]float64) *Chain {
	coo := sparse.NewCOO(n, n, len(rates)+n)
	exit := make([]float64, n)
	keys := make([][2]int, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		r := rates[k]
		if k[0] == k[1] {
			continue
		}
		if r < 0 {
			panic(fmt.Sprintf("ctmc: negative rate %g at %v", r, k))
		}
		coo.Add(k[0], k[1], r)
		exit[k[0]] += r
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, -exit[i])
	}
	return &Chain{N: n, Q: coo.ToCSR(), ExitRate: exit, ActionRate: map[string][]float64{}}
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
	// Workers bounds the goroutines of the power-iteration products and
	// residual checks (0 inherits Chain.Workers; <= 1 sequential).
	// Bit-identical for any value.
	Workers int
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
	if opt.Workers == 0 {
		opt.Workers = c.Workers
	}
	qt := c.transposedQCached()
	// One scratch arena serves the whole ladder: a rejected stage's work
	// vectors are recycled by the next stage's retry instead of growing
	// the heap per escalation. Scoped to this call (Scratch is not
	// concurrency-safe; chains are shared across goroutines).
	scratch := &sparse.Scratch{}
	var stages []StageAttempt
	if !opt.DenseOnly {
		pi, att, ok := c.steadyIterative(ctx, qt, opt, scratch)
		if cerr := ctx.Err(); cerr != nil && !ok {
			return nil, c.canceledStage(cerr, att)
		}
		c.recordStage(att, ok)
		if ok {
			return pi, nil
		}
		stages = append(stages, att)
		pi, att, ok = c.steadyPower(ctx, opt, scratch)
		if cerr := ctx.Err(); cerr != nil && !ok {
			return nil, c.canceledStage(cerr, att)
		}
		c.recordStage(att, ok)
		if ok {
			return pi, nil
		}
		stages = append(stages, att)
		pi, att, ok = c.steadyKrylov(ctx, qt, opt, scratch)
		if cerr := ctx.Err(); cerr != nil && !ok {
			return nil, c.canceledStage(cerr, att)
		}
		c.recordStage(att, ok)
		if ok {
			return pi, nil
		}
		stages = append(stages, att)
	}
	if c.N > opt.DenseLimit {
		stages = append(stages, StageAttempt{
			Method:   "dense-lu",
			Residual: math.NaN(),
			Err:      fmt.Sprintf("chain (n=%d) exceeds dense fallback limit %d", c.N, opt.DenseLimit),
		})
		return nil, &ConvergenceError{N: c.N, Stages: stages}
	}
	pi, err := c.steadyDense(qt)
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
	// Per-stage outcome counter keyed by stage name, so dashboards can
	// watch how often each ladder rung (notably the Krylov stage) fires
	// and whether it accepts, without parsing the combined trace.
	c.Obs.Inc("ctmc_solve_stage_total", obs.L("stage", att.Method), obs.L("outcome", outcome))
	c.Obs.Add("ctmc_steady_iterations_total", float64(att.Iterations), method)
	if !math.IsNaN(att.Residual) {
		c.Obs.Set("ctmc_steady_residual", att.Residual, method)
	}
}

// residualNormInf computes the acceptance residual ||piᵀ·Q||_inf of the
// steady-state stages, routing the product through the transpose-backed
// parallel kernel when workers > 1 (bit-identical to the sequential path).
func (c *Chain) residualNormInf(pi []float64, workers int) float64 {
	if workers > 1 {
		qt := c.transposedQCached()
		y := make([]float64, c.N)
		sparse.VecMulAccumPlanT(qt, y, pi, nil, 0, c.planCached(qt, workers), c.solvePool(workers))
		return linalg.NormInf(y)
	}
	return linalg.NormInf(c.Q.VecMul(pi))
}

// steadyPower runs power iteration on the uniformized DTMC
// P = I + Q/(1.1·q): the stationary distribution of P equals that of the
// CTMC, and the slack factor guarantees aperiodicity.
func (c *Chain) steadyPower(ctx context.Context, opt SteadyStateOptions, scratch *sparse.Scratch) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "power-iteration", Residual: math.NaN()}
	q := c.MaxExitRate()
	if q == 0 {
		att.Err = "zero uniformization rate (no transitions)"
		return nil, att, false
	}
	p := c.uniformizedCached(q * 1.1)
	iterOpt := sparse.IterOptions{MaxIter: opt.MaxIter * 5, Tol: opt.Tol, Workers: opt.Workers, Cancel: ctx.Err, Scratch: scratch}
	if opt.Workers > 1 {
		pt := c.uniformizedTransposeCached(q * 1.1)
		iterOpt.Transposed = pt
		iterOpt.Plan = c.planCached(pt, opt.Workers)
		iterOpt.Pool = c.solvePool(opt.Workers)
	}
	pi, res, err := sparse.PowerIteration(p, iterOpt)
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
	att.Residual = c.residualNormInf(pi, opt.Workers)
	if att.Residual > math.Sqrt(opt.Tol) {
		att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
		return nil, att, false
	}
	return pi, att, true
}

// steadyIterative runs Gauss–Seidel sweeps on Qᵀx = 0 with renormalization;
// the trivial solution is avoided by the normalization step.
func (c *Chain) steadyIterative(ctx context.Context, qt *sparse.CSR, opt SteadyStateOptions, scratch *sparse.Scratch) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "gauss-seidel", Residual: math.NaN()}
	n := c.N
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	// One linear pass over the CSR entries instead of a per-row binary
	// search: the diagonal is dense in any irreducible generator.
	diag := scratch.Get(n)
	defer scratch.Put(diag)
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
			att.Residual = c.residualNormInf(pi, opt.Workers)
			att.Err = "canceled: " + cerr.Error()
			return nil, att, false
		}
		att.Iterations = it + 1
		var delta float64
		for i := 0; i < n; i++ {
			var s float64
			for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
				j := qt.ColIdx[k]
				if j != i {
					s -= qt.Val[k] * pi[j]
				}
			}
			nx := s / diag[i]
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
			att.Residual = c.residualNormInf(pi, opt.Workers)
			if att.Residual < math.Sqrt(opt.Tol) {
				return pi, att, true
			}
			att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
			return nil, att, false
		}
	}
	att.Residual = c.residualNormInf(pi, opt.Workers)
	att.Err = fmt.Sprintf("did not converge within %d sweeps", opt.MaxIter)
	return nil, att, false
}

// steadyKrylov runs Jacobi-preconditioned BiCGStab on the normalized
// steady-state system A·piᵀ = e_n, where A is Qᵀ with its last row
// replaced by the all-ones normalization row (the same system steadyDense
// factorizes, but matrix-free and sparse): the product y = A·x is the
// cached Qᵀ product — routed through the plan/pool kernel when workers
// allow, bit-identical to the sequential path — with y[n-1] overwritten
// by sum(x). A Krylov method's iteration count is governed by the
// spectrum, not the stiffness ratio, so this rung catches generators
// whose rate spreads starve both stationary iterations while n is far
// beyond the dense fallback limit.
func (c *Chain) steadyKrylov(ctx context.Context, qt *sparse.CSR, opt SteadyStateOptions, scratch *sparse.Scratch) ([]float64, StageAttempt, bool) {
	att := StageAttempt{Method: "bicgstab", Residual: math.NaN()}
	n := c.N
	workers := opt.Workers
	var (
		plan *sparse.Plan
		pool *sparse.Pool
	)
	if workers > 1 && qt.NNZ() >= sparse.ParallelNNZThreshold {
		plan = c.planCached(qt, workers)
		pool = c.solvePool(workers)
	} else {
		workers = 1
	}
	apply := func(y, x []float64) {
		if workers > 1 {
			sparse.VecMulAccumPlanT(qt, y, x, nil, 0, plan, pool)
		} else {
			qt.MulVecTo(y, x)
		}
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
	att.Residual = c.residualNormInf(pi, opt.Workers)
	if att.Residual > math.Sqrt(opt.Tol) {
		att.Err = fmt.Sprintf("converged but residual %.3g exceeds %.3g", att.Residual, math.Sqrt(opt.Tol))
		return nil, att, false
	}
	return pi, att, true
}

// steadyDense solves the dense system Qᵀ·piᵀ = 0 with the last equation
// replaced by sum(pi) = 1.
func (c *Chain) steadyDense(qt *sparse.CSR) ([]float64, error) {
	n := c.N
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
	return c.transientCtx(ctx, p0, t, eps, nil, nil)
}

// transientCtx is TransientCtx with an optional scratch arena for the
// propagation buffers (cur/next) and an optional output buffer: when out
// is non-nil the result is accumulated into it (cleared first) instead
// of a fresh allocation, so a grid whose caller reduces each point to a
// scalar (FirstPassageCDF) allocates no per-point distribution at all.
// Results are bit-identical in every combination (all buffers are fully
// initialized before use).
func (c *Chain) transientCtx(ctx context.Context, p0 []float64, t, eps float64, scratch *sparse.Scratch, out []float64) ([]float64, error) {
	if len(p0) != c.N {
		return nil, fmt.Errorf("ctmc: initial distribution length %d != %d states", len(p0), c.N)
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
	q := c.MaxExitRate()
	if q == 0 || t == 0 {
		if out == nil {
			out = make([]float64, c.N)
		}
		copy(out, p0)
		return out, nil
	}
	// Uniformized DTMC P = I + Q/q as CSR, memoized per chain so a series
	// of transient solves (a CDF grid) assembles and sorts it exactly once.
	p := c.uniformizedCached(q)
	w, err := c.poissonCached(q*t, eps)
	if err != nil {
		return nil, err
	}
	workers := c.Workers
	// The power loop needs xᵀ·P, whose scatter writes defeat row
	// partitioning; the cached transpose turns each output entry into an
	// independent dot product (bit-identical, disjoint writes). Matrices
	// under the parallel threshold never pay for the transpose or pool.
	var par *transposeKernel
	if workers > 1 && p.NNZ() >= sparse.ParallelNNZThreshold {
		pt := c.uniformizedTransposeCached(q)
		par = &transposeKernel{pt: pt, plan: c.planCached(pt, workers), pool: c.solvePool(workers)}
	}
	c.Obs.Inc("ctmc_transient_solves_total")
	c.Obs.Add("ctmc_uniformization_terms_total", float64(w.Right+1))
	c.Obs.Set("ctmc_uniformization_truncation_depth", float64(w.Right))
	c.Obs.Set("ctmc_solve_workers", math.Max(1, float64(workers)))
	// acc is returned, so without a caller-provided buffer it is a fresh
	// allocation; the two propagation buffers come from the scratch arena
	// when one is provided. Recycled buffers must start zeroed — acc is
	// pure accumulation, and the windowed scatter relies on everything
	// outside next's dirty window being exact zero.
	cur := scratch.Get(c.N)
	defer scratch.Put(cur)
	copy(cur, p0)
	acc := out
	if acc == nil {
		acc = make([]float64, c.N)
	} else {
		clear(acc)
	}
	next := scratch.Get(c.N)
	defer scratch.Put(next)
	clear(next)
	if k, cerr := uniformize(ctx, p, par, w, cur, next, acc); cerr != nil {
		runctx.Record(c.Obs, "ctmc.transient", cerr)
		return nil, runctx.New("ctmc.transient", cerr, k, w.Right+1, "uniformization terms")
	}
	// Renormalize the truncation slack.
	linalg.Normalize1(acc)
	return acc, nil
}

// transposeKernel is the pooled transpose product a chain above
// sparse.ParallelNNZThreshold hands the term loop: Pᵀ, its memoized
// partition plan, and the chain's worker pool.
type transposeKernel struct {
	pt   *sparse.CSR
	plan *sparse.Plan
	pool *sparse.Pool
}

// uniformize sums the Poisson-weighted uniformization terms
// acc += Σ_{k≤w.Right} w.Pmf(k)·x·P^k, with x starting as cur. cur and
// next are the two propagation buffers and are clobbered; next and acc
// must be zero on entry. It returns the number of terms summed and, when
// ctx is canceled between terms, ctx's error.
//
// Each term runs the windowed scatter, or — when par is non-nil and the
// live nonzeros under the iterate's support reach
// sparse.ParallelNNZThreshold — the pooled transpose kernel. Both fuse the
// Poisson accumulation into the product and are bit-identical.
func uniformize(ctx context.Context, p *sparse.CSR, par *transposeKernel, w *poisson.Weights, cur, next, acc []float64) (int, error) {
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
		// Adaptive dispatch: the parallel transpose kernel reads every
		// stored entry, so it only wins once the iterate's support covers
		// enough of the matrix; a concentrated iterate runs the windowed
		// scatter. Both paths fuse the Poisson accumulation into the pass.
		if par != nil && p.ActiveNNZ(cur, lo, hi, sparse.ParallelNNZThreshold) >= sparse.ParallelNNZThreshold {
			sparse.VecMulAccumPlanT(par.pt, next, cur, accTerm, pw, par.plan, par.pool)
			cur, next = next, cur
			// The kernel wrote every entry of the new cur; the swapped-out
			// buffer only held the old support window.
			dirtyLo, dirtyHi = lo, hi
			lo, hi = 0, n
		} else {
			if dirtyHi > dirtyLo {
				clear(next[dirtyLo:dirtyHi])
			}
			nlo, nhi := p.VecMulAccumScatter(next, cur, accTerm, pw, lo, hi)
			cur, next = next, cur
			dirtyLo, dirtyHi = lo, hi
			lo, hi = nlo, nhi
		}
	}
	return w.Right + 1, nil
}

// TransientSeries evaluates the transient distribution on an ascending
// time grid. Instead of solving each horizon from scratch (O(sum q·t_k)
// matrix-vector products), it propagates incrementally from grid point to
// grid point (O(q·t_max) total): p(t_{k+1}) = Transient(p(t_k), dt).
// Truncation error accumulates additively over the grid, so the per-step
// eps is tightened by the number of steps.
func (c *Chain) TransientSeries(p0 []float64, times []float64, eps float64) ([][]float64, error) {
	return c.TransientSeriesCtx(context.Background(), p0, times, eps)
}

// TransientSeriesCtx is TransientSeries with cooperative cancellation.
// An interrupted run returns a *runctx.ErrCanceled whose Partial holds
// the prefix of grid distributions already propagated (out[:Done]),
// chained to the inner per-term cancellation for the full trace.
func (c *Chain) TransientSeriesCtx(ctx context.Context, p0 []float64, times []float64, eps float64) ([][]float64, error) {
	if eps <= 0 {
		eps = 1e-10
	}
	out := make([][]float64, len(times))
	if len(times) == 0 {
		return out, nil
	}
	stepEps := eps / float64(len(times))
	cur := append([]float64(nil), p0...)
	prevT := 0.0
	// One scratch arena serves every grid point's propagation buffers;
	// only the per-point output distributions are fresh allocations.
	scratch := &sparse.Scratch{}
	for i, t := range times {
		dt, err := gridStep("TransientSeries", i, t, prevT)
		if err != nil {
			return nil, err
		}
		pt, err := c.transientCtx(ctx, cur, dt, stepEps, scratch, nil)
		if err != nil {
			var inner *runctx.ErrCanceled
			if errors.As(err, &inner) {
				ec := runctx.New("ctmc.transient-series", err, i, len(times), "grid points")
				ec.Partial = out[:i]
				return nil, ec
			}
			return nil, fmt.Errorf("ctmc: transient step to t=%g: %w", t, err)
		}
		out[i] = pt
		cur = append(cur[:0], pt...)
		prevT = t
	}
	return out, nil
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

// uniformized builds P = I + Q/q directly in CSR form. Q's rows are
// already column-sorted and duplicate-free, so the COO round-trip the
// original implementation paid — a counting sort plus per-row column
// sorts on every uncached build — is pure overhead; the direct build is
// one pass over Q. Bit-identity with the COO path is preserved exactly:
// the off-diagonal mass is accumulated in the same ascending-column
// order, the diagonal 1-offDiag is emitted at its sorted position, and
// exact-zero values are dropped just as ToCSR drops them.
func (c *Chain) uniformized(q float64) *sparse.CSR {
	n := c.N
	m := &sparse.CSR{
		Rows: n, Cols: n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, c.Q.NNZ()+n),
		Val:    make([]float64, 0, c.Q.NNZ()+n),
	}
	for i := 0; i < n; i++ {
		s, e := c.Q.RowPtr[i], c.Q.RowPtr[i+1]
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
	for _, s := range targets {
		if s < 0 || s >= c.N {
			return nil, fmt.Errorf("ctmc: target state %d out of range", s)
		}
	}
	abs, isTarget, err := c.absorbingChain(targets)
	if err != nil {
		return nil, err
	}
	cdf := &PassageCDF{Times: append([]float64(nil), times...), Probs: make([]float64, len(times))}
	if len(times) == 0 {
		return cdf, nil
	}
	// Stream the grid instead of materializing the full distribution
	// series: each point is propagated incrementally like
	// TransientSeriesCtx (same grid math, bit-identical probabilities)
	// but reduced to its absorbed-mass scalar on the spot, with the
	// distribution buffers recycled through one scratch arena — a CDF
	// grid allocates no per-point distributions at all.
	if eps <= 0 {
		eps = 1e-10
	}
	stepEps := eps / float64(len(times))
	scratch := &sparse.Scratch{}
	cur := scratch.Get(c.N)
	copy(cur, p0)
	acc := scratch.Get(c.N)
	prevT := 0.0
	for i, t := range times {
		dt, err := gridStep("FirstPassageCDF", i, t, prevT)
		if err != nil {
			return nil, err
		}
		pt, err := abs.transientCtx(ctx, cur, dt, stepEps, scratch, acc)
		if err != nil {
			var inner *runctx.ErrCanceled
			if errors.As(err, &inner) {
				partial := &PassageCDF{Times: append([]float64(nil), times[:i]...), Probs: append([]float64(nil), cdf.Probs[:i]...)}
				ec := runctx.New("ctmc.first-passage", err, i, len(times), "grid points")
				ec.Partial = partial
				return nil, ec
			}
			return nil, fmt.Errorf("ctmc: passage transient step to t=%g: %w", t, err)
		}
		cdf.Probs[i] = absorbedMass(pt, isTarget)
		copy(cur, pt)
		prevT = t
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

// absorbingChain builds (or returns the memoized) absorbing-transformed
// chain Q~ for the target set: target rows are zeroed so their mass can
// only accumulate. Conformance checks and CLI sweeps evaluate the same
// passage repeatedly, so the last target set's chain — including its own
// solve cache of P, Pᵀ, and weight tables — is kept on the parent cache.
func (c *Chain) absorbingChain(targets []int) (*Chain, []bool, error) {
	key := passageKey(targets)
	if !c.noSolveCache {
		c.mu.Lock()
		sc := c.cacheLocked()
		// Workers and Obs are baked into the memoized chain at build time
		// and never mutated afterwards (a published chain may be in use by
		// another goroutine), so a settings change is a cache miss.
		if sc.passageChain != nil && sc.passageKey == key &&
			sc.passageChain.Workers == c.Workers && sc.passageChain.Obs == c.Obs {
			abs, isTarget := sc.passageChain, sc.passageTargets
			c.mu.Unlock()
			c.Obs.Inc("ctmc_passage_cache_total", obs.L("outcome", "hit"))
			return abs, isTarget, nil
		}
		c.mu.Unlock()
		c.Obs.Inc("ctmc_passage_cache_total", obs.L("outcome", "miss"))
	}
	isTarget := make([]bool, c.N)
	for _, s := range targets {
		isTarget[s] = true
	}
	// Direct CSR→CSR build. Q's rows are column-sorted and duplicate-free,
	// so each non-target row of the absorbing matrix is its off-diagonals
	// copied in order with the diagonal -exit spliced at its sorted
	// position; a row with no exit gets no diagonal (its sum is exactly
	// zero, which ToCSR dropped). Bit-identical to the COO round-trip the
	// original implementation paid — same values accumulated in the same
	// ascending-column order — without the O(nnz) entry buffer or the
	// counting sort, which matters because a chain-family sweep builds one
	// absorbing chain per re-rated member.
	exit := make([]float64, c.N)
	qabs := &sparse.CSR{
		Rows: c.N, Cols: c.N,
		RowPtr: make([]int, c.N+1),
		ColIdx: make([]int, 0, c.Q.NNZ()),
		Val:    make([]float64, 0, c.Q.NNZ()),
	}
	for i := 0; i < c.N; i++ {
		if isTarget[i] {
			qabs.RowPtr[i+1] = len(qabs.Val)
			continue
		}
		lo, hi := c.Q.RowPtr[i], c.Q.RowPtr[i+1]
		var rowExit float64
		for k := lo; k < hi; k++ {
			if j := c.Q.ColIdx[k]; j != i {
				v := c.Q.Val[k]
				if v < 0 {
					return nil, nil, fmt.Errorf("ctmc: malformed generator: negative off-diagonal rate %g at (%d,%d)", v, i, j)
				}
				rowExit += v
			}
		}
		diagDone := rowExit == 0
		for k := lo; k < hi; k++ {
			j := c.Q.ColIdx[k]
			if j == i {
				continue
			}
			if !diagDone && j > i {
				qabs.ColIdx = append(qabs.ColIdx, i)
				qabs.Val = append(qabs.Val, -rowExit)
				diagDone = true
			}
			qabs.ColIdx = append(qabs.ColIdx, j)
			qabs.Val = append(qabs.Val, c.Q.Val[k])
		}
		if !diagDone {
			qabs.ColIdx = append(qabs.ColIdx, i)
			qabs.Val = append(qabs.Val, -rowExit)
		}
		exit[i] = rowExit
		qabs.RowPtr[i+1] = len(qabs.Val)
	}
	// The weight tables of the absorbing solve are shared through the
	// family (abs keeps the pointer), so a sweep's members compute each
	// Poisson table once between them.
	abs := &Chain{N: c.N, Q: qabs, ExitRate: exit, ActionRate: map[string][]float64{},
		Obs: c.Obs, Workers: c.Workers, noSolveCache: c.noSolveCache, family: c.family}
	// The passage solve runs on the absorbing chain; if the parent
	// already has a pool, share it instead of
	// spinning up a second set of workers. The absorbing chain never
	// closes a shared pool, and a pool replaced under it degrades to
	// inline execution — never to a wrong result.
	c.mu.Lock()
	if c.pool != nil {
		abs.pool, abs.poolOwned = c.pool, false
	}
	c.mu.Unlock()
	if !c.noSolveCache {
		c.mu.Lock()
		sc := c.cacheLocked()
		sc.passageKey, sc.passageChain, sc.passageTargets = key, abs, isTarget
		c.mu.Unlock()
	}
	return abs, isTarget, nil
}

// passageKey fingerprints a target set order-insensitively.
func passageKey(targets []int) string {
	sorted := append([]int(nil), targets...)
	sort.Ints(sorted)
	var b strings.Builder
	for _, s := range sorted {
		fmt.Fprintf(&b, "%d,", s)
	}
	return b.String()
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

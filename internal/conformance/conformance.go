package conformance

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/ctmc"
	"repro/internal/par"
	"repro/internal/pepa/sim"
)

// Tolerances collects every numeric bound the harness applies, with the
// derivations written up in docs/TESTING.md. Zero values select the
// documented defaults.
type Tolerances struct {
	// ProbSum bounds |sum(p) - 1| for any probability distribution.
	ProbSum float64 // default 1e-9
	// ExactAbs bounds absolute drift between two exact solves related by
	// a bisimulation or time-rescaling (pure floating-point noise).
	ExactAbs float64 // default 1e-8
	// ExactRel bounds relative drift on exact throughput relations.
	ExactRel float64 // default 1e-8
	// StationaryAbs bounds |Transient(pi, t) - pi| per state: the
	// uniformization error plus the steady-state residual, both well
	// under this.
	StationaryAbs float64 // default 1e-6
	// SSAZ is the z-multiplier on the simulation standard error. 4 sigma
	// two-sided per comparison keeps the family-wise false-alarm rate of
	// a full sweep well below one in ten thousand.
	SSAZ float64 // default 4
	// SSABias is the burn-in allowance numerator: trajectories start at
	// state 0 rather than at stationarity, which biases time averages by
	// O(mixing time / horizon); the harness budgets SSABias/Horizon
	// relative units for it.
	SSABias float64 // default 8
	// FluidLinearRel bounds the single-group fluid solution against the
	// exact scaled CTMC transient (the two are mathematically equal; the
	// bound covers ODE and uniformization truncation error only).
	FluidLinearRel float64 // default 1e-6
	// FluidBias is the mean-field bias coefficient for min-coupled
	// groups: the fluid/stochastic-mean gap is bounded by
	// FluidBias·sqrt(K) components at population scale K.
	FluidBias float64 // default 1.0
}

func (t Tolerances) withDefaults() Tolerances {
	def := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&t.ProbSum, 1e-9)
	def(&t.ExactAbs, 1e-8)
	def(&t.ExactRel, 1e-8)
	def(&t.StationaryAbs, 1e-6)
	def(&t.SSAZ, 4)
	def(&t.SSABias, 8)
	def(&t.FluidLinearRel, 1e-6)
	def(&t.FluidBias, 1.0)
	return t
}

// Config tunes one conformance sweep.
type Config struct {
	Gen GenOptions
	Tol Tolerances
	// SSAReps is the number of independent SSA replications (default 8).
	SSAReps int
	// SSAHorizon is the simulated time per replication (default 300).
	SSAHorizon float64
	// FluidScale multiplies the grouped model's seed populations for the
	// coupled fluid check (default 20).
	FluidScale float64
	// FluidReps is the population-SSA ensemble size (default 24).
	FluidReps int
}

func (c Config) withDefaults() Config {
	if c.SSAReps < 2 {
		c.SSAReps = 8
	}
	if c.SSAHorizon <= 0 {
		c.SSAHorizon = 300
	}
	if c.FluidScale <= 0 {
		c.FluidScale = 20
	}
	if c.FluidReps < 2 {
		c.FluidReps = 24
	}
	c.Tol = c.Tol.withDefaults()
	return c
}

// solveSteady derives the chain and its stationary distribution, checking
// the distribution invariants (non-negative, sums to one).
func solveSteady(g *Generated, tol Tolerances) (*ctmc.Chain, []float64, error) {
	chain := ctmc.FromStateSpace(g.Space)
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("steady state of seed-%d model (n=%d): %w", g.Seed, chain.N, err)
	}
	if err := checkDistribution(pi, tol.ProbSum); err != nil {
		return nil, nil, fmt.Errorf("steady state of seed-%d model: %w", g.Seed, err)
	}
	return chain, pi, nil
}

func checkDistribution(p []float64, tol float64) error {
	var sum float64
	for i, v := range p {
		if v < -tol {
			return fmt.Errorf("probability %g < 0 at index %d", v, i)
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("probabilities sum to %.12g, not 1 (tol %g)", sum, tol)
	}
	return nil
}

// CheckSteadyVsSSA is the primary differential: the exact steady-state
// throughput of every action, and the occupancy of the modal state, must
// agree with a Gillespie ensemble within the confidence interval implied
// by the replication variance plus the documented burn-in allowance.
func CheckSteadyVsSSA(g *Generated, cfg Config) error {
	cfg = cfg.withDefaults()
	chain, pi, err := solveSteady(g, cfg.Tol)
	if err != nil {
		return err
	}
	exactThru := chain.Throughputs(pi)

	// The modal state's exact occupancy, for the occupancy differential.
	modal := 0
	for s := range pi {
		if pi[s] > pi[modal] {
			modal = s
		}
	}
	modalTerm := g.Space.States[modal]

	simSeed := mix(g.Seed, 0x55A)
	opt := sim.Options{Horizon: cfg.SSAHorizon, Seed: simSeed}

	// Per-action throughput statistics, through the public ensemble API so
	// the differential exercises what callers actually use.
	ens, err := sim.RunEnsemble(g.Model, opt, cfg.SSAReps)
	if err != nil {
		return fmt.Errorf("SSA ensemble on seed-%d model: %w", g.Seed, err)
	}
	for _, action := range g.Space.ActionTypes {
		exact := exactThru[action]
		mean, half := ens.ThroughputCI(action, cfg.Tol.SSAZ)
		tol := half + exact*cfg.Tol.SSABias/cfg.SSAHorizon
		if math.Abs(mean-exact) > tol {
			return fmt.Errorf("seed-%d model: throughput(%s): exact %.6g vs SSA %.6g ± %.2g (tol %.2g, %d reps, horizon %g)",
				g.Seed, action, exact, mean, half, tol, cfg.SSAReps, cfg.SSAHorizon)
		}
	}

	// Re-run the same replications (same seed derivation as RunEnsemble)
	// to collect the per-trajectory occupancy statistic the ensemble does
	// not aggregate.
	results, err := par.Map(context.Background(), cfg.SSAReps, func(i int) (*sim.Result, error) {
		o := opt
		o.Seed = sim.ReplicationSeed(simSeed, i)
		return sim.Run(g.Model, o)
	})
	if err != nil {
		return fmt.Errorf("SSA on seed-%d model: %w", g.Seed, err)
	}

	// Occupancy of the modal state.
	exactOcc := pi[modal]
	meanOcc, seOcc := repStats(results, func(r *sim.Result) float64 {
		return r.Occupancy(func(term string) bool { return term == modalTerm })
	})
	tol := cfg.Tol.SSAZ*seOcc + exactOcc*cfg.Tol.SSABias/cfg.SSAHorizon
	if math.Abs(meanOcc-exactOcc) > tol {
		return fmt.Errorf("seed-%d model: occupancy of modal state %q: exact %.6g vs SSA %.6g ± %.2g (tol %.2g)",
			g.Seed, modalTerm, exactOcc, meanOcc, seOcc, tol)
	}
	return nil
}

// repStats returns the mean and standard error of f over the replications.
func repStats(results []*sim.Result, f func(*sim.Result) float64) (mean, stderr float64) {
	n := float64(len(results))
	var sum, sumSq float64
	for _, r := range results {
		x := f(r)
		sum += x
		sumSq += x * x
	}
	mean = sum / n
	if len(results) > 1 {
		v := (sumSq - n*mean*mean) / (n - 1)
		if v < 0 {
			v = 0
		}
		stderr = math.Sqrt(v / n)
	}
	return mean, stderr
}

// CheckStationarity cross-checks the steady-state solver against the
// uniformization engine: a transient solve started *at* the stationary
// distribution must stay there for any horizon, exactly — no mixing-time
// assumption is involved.
func CheckStationarity(g *Generated, cfg Config) error {
	cfg = cfg.withDefaults()
	chain, pi, err := solveSteady(g, cfg.Tol)
	if err != nil {
		return err
	}
	for _, t := range []float64{0.7, 7.3} {
		pt, err := chain.Transient(pi, t, 1e-12)
		if err != nil {
			return fmt.Errorf("seed-%d model: transient from pi at t=%g: %w", g.Seed, t, err)
		}
		if err := checkDistribution(pt, cfg.Tol.ProbSum); err != nil {
			return fmt.Errorf("seed-%d model: transient at t=%g: %w", g.Seed, t, err)
		}
		for s := range pt {
			if d := math.Abs(pt[s] - pi[s]); d > cfg.Tol.StationaryAbs {
				return fmt.Errorf("seed-%d model: transient from pi drifted by %.3g at state %d, t=%g (tol %g)",
					g.Seed, d, s, t, cfg.Tol.StationaryAbs)
			}
		}
	}
	return nil
}

// CheckPassageMonotone verifies first-passage CDFs from the initial state
// to the modal state are genuine CDFs: within [0,1] and nondecreasing.
func CheckPassageMonotone(g *Generated, cfg Config) error {
	cfg = cfg.withDefaults()
	chain, pi, err := solveSteady(g, cfg.Tol)
	if err != nil {
		return err
	}
	modal := 0
	for s := range pi {
		if pi[s] > pi[modal] {
			modal = s
		}
	}
	times := make([]float64, 25)
	for i := range times {
		times[i] = float64(i) * 0.5
	}
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), []int{modal}, times, 1e-10)
	if err != nil {
		return fmt.Errorf("seed-%d model: passage CDF: %w", g.Seed, err)
	}
	return checkCDF(cdf.Probs, cdf.Times)
}

// checkCDF asserts CDF sample values lie in [0,1] and are nondecreasing
// up to uniformization truncation slack.
func checkCDF(probs, times []float64) error {
	const slack = 1e-9
	prev := 0.0
	for i, p := range probs {
		if p < -slack || p > 1+slack {
			return fmt.Errorf("CDF value %.12g at t=%g outside [0,1]", p, times[i])
		}
		if p < prev-slack {
			return fmt.Errorf("CDF decreases from %.12g to %.12g at t=%g", prev, p, times[i])
		}
		if p > prev {
			prev = p
		}
	}
	return nil
}

// sortedCopy returns an ascending copy of v, for order-insensitive
// comparison of probability multisets across isomorphic state spaces.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

package conformance

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/par"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/pepa/sim"
	"repro/internal/robustness"
)

// The metamorphic and differential battery applied to the paper's own
// models: the Table I machine allocations whose finishing-time CDFs are
// Figs 3 and 4. Random models give the sweep breadth; these give it a
// direct line to the numbers the reproduction actually publishes.

func robustnessGrid(n int, step float64) []float64 {
	times := make([]float64, n+1)
	for i := range times {
		times[i] = float64(i) * step
	}
	return times
}

// TestRobustnessCDFInvariants: every finishing-time CDF and the makespan
// CDF are genuine CDFs, and the makespan CDF never exceeds any single
// machine's CDF (the makespan is the max of the finishing times).
func TestRobustnessCDFInvariants(t *testing.T) {
	s := robustness.NewStudy()
	times := robustnessGrid(30, 20)
	machines := []int{0}
	if *flagDeep {
		machines = []int{0, 1, 2, 3, 4}
	}
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		t.Run("mapping"+mapping, func(t *testing.T) {
			perMachine := make([]*ctmc.PassageCDF, 0, len(machines))
			for _, j := range machines {
				cdf, err := s.FinishingCDF(mapping, j, times)
				if err != nil {
					t.Fatalf("machine %d: %v", j+1, err)
				}
				if err := checkCDF(cdf.Probs, cdf.Times); err != nil {
					t.Errorf("machine %d finishing CDF: %v", j+1, err)
				}
				perMachine = append(perMachine, cdf)
			}
			makespan, err := s.MakespanCDF(mapping, times)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCDF(makespan.Probs, makespan.Times); err != nil {
				t.Errorf("makespan CDF: %v", err)
			}
			for mi, cdf := range perMachine {
				for i := range times {
					if makespan.Probs[i] > cdf.Probs[i]+1e-9 {
						t.Errorf("makespan CDF %.9g exceeds machine %d CDF %.9g at t=%g",
							makespan.Probs[i], machines[mi]+1, cdf.Probs[i], times[i])
					}
				}
			}
			// Robustness(tau) must equal the makespan CDF at tau by
			// construction.
			tau := times[len(times)-1]
			rob, err := s.Robustness(mapping, tau, 30)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(rob - makespan.Probs[len(times)-1]); d > 1e-9 {
				t.Errorf("Robustness(%g) = %.9g but makespan CDF ends at %.9g", tau, rob, makespan.Probs[len(times)-1])
			}
		})
	}
}

// TestRobustnessTimeRescaling: scaling every rate of a machine model by c
// compresses time by exactly c, so CDF_scaled(t) == CDF(c·t) pointwise.
// This exercises pepa.ScaleRates, derivation, and uniformization on a
// published model rather than a generated one.
func TestRobustnessTimeRescaling(t *testing.T) {
	const c = 2.0
	s := robustness.NewStudy()
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		m, err := s.MachineModel(mapping, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := m.ScaleRates(c)
		if err != nil {
			t.Fatal(err)
		}
		times := robustnessGrid(20, 20)
		compressed := make([]float64, len(times))
		for i, tt := range times {
			compressed[i] = tt / c
		}
		cdfBase, err := machinePassageCDF(m, 0, times)
		if err != nil {
			t.Fatal(err)
		}
		cdfScaled, err := machinePassageCDF(scaled, 0, compressed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range times {
			if d := math.Abs(cdfBase.Probs[i] - cdfScaled.Probs[i]); d > 1e-7 {
				t.Errorf("mapping %s: CDF(%g)=%.9g but scaled CDF(%g)=%.9g (|Δ|=%.3g)",
					mapping, times[i], cdfBase.Probs[i], compressed[i], cdfScaled.Probs[i], d)
			}
		}
	}
}

// machinePassageCDF derives a machine model and computes the passage CDF
// into its Done state for machine j+1.
func machinePassageCDF(m *pepa.Model, j int, times []float64) (*ctmc.PassageCDF, error) {
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return nil, err
	}
	done := fmt.Sprintf("Done%d", j+1)
	targets := ss.StatesMatching(func(term string) bool { return strings.Contains(term, done) })
	if len(targets) == 0 {
		return nil, fmt.Errorf("no %s state in machine model", done)
	}
	chain := ctmc.FromStateSpace(ss)
	return chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
}

// TestRobustnessSSAVsPassage: the fraction of Gillespie trajectories that
// have entered the Done state by the horizon must match the exact passage
// CDF value within the binomial confidence interval — the simulator and
// the uniformization engine observing the same event.
func TestRobustnessSSAVsPassage(t *testing.T) {
	s := robustness.NewStudy()
	reps := 120
	if *flagDeep {
		reps = 600
	}
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		m, err := s.MachineModel(mapping, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := derive.Explore(m, derive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chain := ctmc.FromStateSpace(ss)
		targets := ss.StatesMatching(func(term string) bool { return strings.Contains(term, "Done1") })
		if len(targets) == 0 {
			t.Fatal("no Done state in machine model")
		}
		// Horizon near the distribution's bulk so the binomial check has
		// discriminating power (p far from 0 and 1).
		horizon := 300.0
		cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, []float64{horizon}, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		exact := cdf.Probs[0]
		results, err := par.Map(context.Background(), reps, func(i int) (*sim.Result, error) {
			return sim.Run(m, sim.Options{Horizon: horizon, Seed: sim.ReplicationSeed(0xD0E, i)})
		})
		if err != nil {
			t.Fatal(err)
		}
		finished := 0
		for _, r := range results {
			if strings.Contains(r.FinalState, "Done1") {
				finished++
			}
		}
		est := float64(finished) / float64(reps)
		se := math.Sqrt(exact*(1-exact)/float64(reps)) + 1e-12
		if d := math.Abs(est - exact); d > 4*se+0.01 {
			t.Errorf("mapping %s: SSA finished fraction %.4g (of %d reps) vs exact CDF(%g)=%.6g (|Δ|=%.3g > %.3g)",
				mapping, est, reps, horizon, exact, d, 4*se+0.01)
		}
	}
}

// TestRobustnessCyclicSteadyVsSSA reuses the generated-model differential
// on the paper's cyclic machine model (Fig 2's form), which is
// irreducible and therefore has a steady state.
func TestRobustnessCyclicSteadyVsSSA(t *testing.T) {
	s := robustness.NewStudy()
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		m, err := s.MachineModel(mapping, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := derive.Explore(m, derive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := &Generated{Model: m, Space: ss, Seed: 424200}
		cfg := sweepConfig()
		// The machine's exec rates are O(1/20) per hour, so the default
		// horizon undersamples; stretch it and keep the same CI logic.
		cfg.SSAHorizon = 3000
		if err := CheckSteadyVsSSA(g, cfg); err != nil {
			t.Errorf("mapping %s: %v", mapping, err)
		}
		if err := CheckStationarity(g, cfg); err != nil {
			t.Errorf("mapping %s: %v", mapping, err)
		}
		if err := CheckRateScaling(g, cfg); err != nil {
			t.Errorf("mapping %s: %v", mapping, err)
		}
	}
}

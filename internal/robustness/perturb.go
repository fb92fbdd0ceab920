package robustness

import (
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/rng"
)

// This file implements the §IV extension: "model resource allocations in
// parallel computing systems and obtain an analysis of the robustness of
// the resource allocations ... as they are subjected to unpredictable
// variations in application and systemic characteristics." ETC entries are
// perturbed multiplicatively and the deadline-meeting probability is
// re-evaluated; the allocation's perturbation robustness is the worst case
// over the sampled perturbations (the FePIA-style robustness radius of the
// paper's refs [2][4], in probabilistic form).

// PerturbationReport summarizes robustness under ETC uncertainty.
type PerturbationReport struct {
	Mapping string
	Tau     float64 // deadline
	// Nominal is P(makespan <= tau) with the unperturbed ETC.
	Nominal float64
	// Values are the per-sample probabilities, sorted ascending.
	Values []float64
	// Worst, Mean, Best summarize Values.
	Worst, Mean, Best float64
	// Spread is the perturbation magnitude used (e.g. 0.3 = +/-30%).
	Spread float64
}

// Perturbed returns a copy of the study with every ETC entry scaled by an
// independent uniform factor in [1-spread, 1+spread] drawn from the seeded
// stream.
func (s *Study) Perturbed(spread float64, seed uint64) (*Study, error) {
	if !(spread >= 0 && spread < 1) {
		return nil, fmt.Errorf("robustness: spread must be in [0,1), got %g", spread)
	}
	r := rng.New(seed)
	// Field-wise copy: Study carries a mutex, and a perturbed copy must not
	// share the parent's checkpoint file (its ETC differs, so the two would
	// overwrite each other's cells under different fingerprints). The
	// chain-family cache IS shared: perturbed models differ only in rate
	// values, so every copy re-rates the parent's derived prototypes
	// instead of re-deriving (see ctmc.ChainFamily).
	c := &Study{
		FailRate:   s.FailRate,
		RepairRate: s.RepairRate,
		Seed:       s.Seed,
		Obs:        s.Obs,
		Workers:    s.Workers,
		families:   s.familySetRef(),
	}
	for i := 0; i < NumApps; i++ {
		for j := 0; j < NumMachines; j++ {
			factor := 1 - spread + 2*spread*r.Float64()
			c.ETC[i][j] = s.ETC[i][j] * factor
		}
	}
	return c, nil
}

// RobustnessUnderPerturbation evaluates P(makespan <= tau) for the nominal
// ETC and for n independently perturbed ETCs.
func (s *Study) RobustnessUnderPerturbation(mapping string, tau, spread float64, n int, seed uint64, samples int) (*PerturbationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("robustness: need at least one perturbation sample")
	}
	if samples <= 0 {
		samples = 40
	}
	nominal, err := s.Robustness(mapping, tau, samples)
	if err != nil {
		return nil, err
	}
	rep := &PerturbationReport{Mapping: mapping, Tau: tau, Nominal: nominal, Spread: spread}
	// Each perturbation sample is an independent study; evaluate them in
	// parallel and collect by index (Values is sorted afterwards anyway).
	values, err := par.Map(n, 0, func(k int) (float64, error) {
		p, err := s.Perturbed(spread, seed+uint64(k)*0x9E3779B97F4A7C15)
		if err != nil {
			return 0, err
		}
		v, err := p.Robustness(mapping, tau, samples)
		if err != nil {
			return 0, fmt.Errorf("robustness: perturbation %d: %w", k, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Values = values
	sort.Float64s(rep.Values)
	rep.Worst = rep.Values[0]
	rep.Best = rep.Values[len(rep.Values)-1]
	var sum float64
	for _, v := range rep.Values {
		sum += v
	}
	rep.Mean = sum / float64(len(rep.Values))
	return rep, nil
}

// CompareMappings runs the perturbation analysis for both mappings and
// reports which is more robust in the worst case — the study's decision
// output ("which static allocation should we deploy?").
func (s *Study) CompareMappings(tau, spread float64, n int, seed uint64, samples int) (a, b *PerturbationReport, winner string, err error) {
	a, err = s.RobustnessUnderPerturbation(MappingA, tau, spread, n, seed, samples)
	if err != nil {
		return nil, nil, "", err
	}
	b, err = s.RobustnessUnderPerturbation(MappingB, tau, spread, n, seed, samples)
	if err != nil {
		return nil, nil, "", err
	}
	winner = MappingA
	if b.Worst > a.Worst {
		winner = MappingB
	}
	return a, b, winner, nil
}

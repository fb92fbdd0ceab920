package robustness

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
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

// perturbETC draws one perturbation sample: every entry of etc scaled by
// an independent uniform factor in [1-spread, 1+spread] from the seeded
// stream. Perturbed and RobustnessUnderPerturbation both draw through it,
// so their sample streams cannot diverge.
func perturbETC(etc *[NumApps][NumMachines]float64, spread float64, seed uint64) ([NumApps][NumMachines]float64, error) {
	var out [NumApps][NumMachines]float64
	if !(spread >= 0 && spread < 1) {
		return out, fmt.Errorf("robustness: spread must be in [0,1), got %g", spread)
	}
	r := rng.New(seed)
	for i := 0; i < NumApps; i++ {
		for j := 0; j < NumMachines; j++ {
			factor := 1 - spread + 2*spread*r.Float64()
			out[i][j] = etc[i][j] * factor
		}
	}
	return out, nil
}

// Perturbed returns a copy of the study with every ETC entry scaled by an
// independent uniform factor in [1-spread, 1+spread] drawn from the seeded
// stream.
func (s *Study) Perturbed(spread float64, seed uint64) (*Study, error) {
	etc, err := perturbETC(&s.ETC, spread, seed)
	if err != nil {
		return nil, err
	}
	// Field-wise copy: Study carries a mutex, and a perturbed copy must not
	// share the parent's checkpoint file (its ETC differs, so the two would
	// overwrite each other's cells under different fingerprints). The
	// chain-family cache IS shared: perturbed models differ only in rate
	// values, so every copy re-rates the parent's derived prototypes
	// instead of re-deriving (see ctmc.ChainFamily).
	return &Study{
		ETC:        etc,
		FailRate:   s.FailRate,
		RepairRate: s.RepairRate,
		Seed:       s.Seed,
		Obs:        s.Obs,
		Workers:    s.Workers,
		families:   s.familySetRef(),
	}, nil
}

// RobustnessUnderPerturbation evaluates P(makespan <= tau) for the nominal
// ETC and for n independently perturbed ETCs, on a CDF grid of samples+1
// points (samples >= 1; tau finite and non-negative).
//
// Sample k is the study Perturbed(spread, seed+k·0x9E3779B97F4A7C15)
// would give, but no per-sample study is built: each machine's n
// perturbed members are one batched passage solve on the machine's chain
// family (ctmc.ChainFamily.FirstPassageCDFs), and a sample's probability is
// the product of its machines' CDFs at tau, multiplied in machine order
// as MakespanCDF multiplies them. Only those CDF values at tau are kept,
// one per member and machine, so the study's storage does not grow with
// the grid.
func (s *Study) RobustnessUnderPerturbation(mapping string, tau, spread float64, n int, seed uint64, samples int) (*PerturbationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("robustness: need at least one perturbation sample")
	}
	times, err := deadlineGrid(tau, samples)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	nominal, err := s.MakespanCDFCtx(ctx, mapping, times)
	if err != nil {
		return nil, err
	}
	cells := make([]*machineCell, NumMachines)
	rates := make([][][]float64, NumMachines)
	for j := range cells {
		if cells[j], err = s.machineCell(ctx, mapping, j); err != nil {
			return nil, fmt.Errorf("robustness: machine %d: %w", j+1, err)
		}
		width := len(cells[j].source)
		flat := make([]float64, n*width)
		rates[j] = make([][]float64, n)
		for k := range rates[j] {
			rates[j][k] = flat[k*width : (k+1)*width : (k+1)*width]
		}
	}
	for k := 0; k < n; k++ {
		etc, err := perturbETC(&s.ETC, spread, seed+uint64(k)*0x9E3779B97F4A7C15)
		if err != nil {
			return nil, err
		}
		for j, cell := range cells {
			s.fillRates(rates[j][k], cell, &etc, j)
		}
	}
	last := len(times) - 1
	atTau := make([]float64, NumMachines*n) // machine j's member k at j*n+k
	err = par.ForEach(ctx, NumMachines, s.Workers, func(j int) error {
		cell, row := cells[j], atTau[j*n:(j+1)*n]
		s.Obs.Add("robustness_family_total", float64(n), obs.L("outcome", "reuse"))
		err := cell.fam.FirstPassageCDFs(ctx, rates[j], cell.p0, cell.targets, times, passageEps, s.Obs, func(k, i int, p float64) {
			if i == last {
				row[k] = p
			}
		})
		if err != nil {
			return fmt.Errorf("robustness: machine %d: %w", j+1, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &PerturbationReport{Mapping: mapping, Tau: tau, Nominal: nominal.Probs[last], Spread: spread}
	rep.Values = make([]float64, n)
	for k := range rep.Values {
		v := 1.0
		for j := 0; j < NumMachines; j++ {
			v *= atTau[j*n+k]
		}
		rep.Values[k] = v
	}
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

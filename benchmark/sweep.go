package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/experiment"
	"repro/internal/gpepa"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
	"repro/internal/robustness"
)

// The sweep workload's study sizes.
const (
	compareTau     = 60
	compareSpread  = 0.3
	compareN       = 256
	compareSamples = 40

	rateSweepStations = 6
	rateSweepPoints   = 24

	fluidCounts  = 40
	fluidHorizon = 50
	// fluidTol absorbs the ODE integrator's error once throughput has
	// saturated: the plateau wobbles in the eighth significant digit.
	fluidTol = 1e-6
)

var sweepWorkload = &workload{
	name:   "sweep",
	why:    "many same-structure solves: a perturbation study on chain families, a re-deriving rate sweep, a fluid sweep",
	warmup: 2,
	setup:  newSweep,
	layers: []layerMetric{
		{"robustness.compare_ms", "ms", selfMS("robustness.compare", "")},
		{"robustness.compare_alloc_mb", "MB", selfAllocMB("robustness.compare", "")},
		{"robustness.family_reuse_ratio", "ratio", ratio("",
			[]string{`robustness_family_total{outcome="reuse"}`}, []string{"robustness_family_total"})},
		{"ctmc.transient_solves", "count", counterMean("ctmc_transient_solves_total", "", 1)},
		{"ctmc.poisson_family_hit_ratio", "ratio", ratio("",
			[]string{`ctmc_poisson_cache_total{outcome="family-hit"}`}, []string{"ctmc_poisson_cache_total"})},
		{"experiment.rate_sweep_ms", "ms", selfMS("experiment.rate_sweep", "")},
		{"experiment.ms_per_point", "ms", func(ops []opTrace) float64 {
			return selfMS("experiment.rate_sweep", "")(ops) / rateSweepPoints
		}},
		{"experiment.rate_sweep_alloc_mb", "MB", selfAllocMB("experiment.rate_sweep", "")},
		{"gpepa.fluid_sweep_ms", "ms", selfMS("gpepa.fluid_sweep", "")},
		{"gpepa.fluid_sweep_alloc_mb", "MB", selfAllocMB("gpepa.fluid_sweep", "")},
		// Shared with solve.
		{"ctmc.uniformization_terms", "count", counterMean("ctmc_uniformization_terms_total", "", 1)},
		{"sparse.kernel_computed_mb", "MB", counterMean(kernelBytesKey, "", 1e-6)},
	},
}

// sweepRun runs the same seeded study on every op, each from a fresh
// robustness.Study so that no chain family survives between ops.
type sweepRun struct {
	e        *env
	lanSrc   string
	thinks   []float64
	counts   []float64
	meanNNZ  float64
	meanRows float64
	first    []float64
	ref      []float64
}

func newSweep(e *env) (runner, error) {
	r := rng.New(e.seed)
	tx := seededRates(r, rateSweepStations, 1.6, 2.4)
	counts := make([]float64, fluidCounts)
	for i := range counts {
		counts[i] = float64(2 * (i + 1))
	}
	ref, err := referenceFor("sweep", e.seed)
	if err != nil {
		return nil, err
	}
	s := &sweepRun{
		e:      e,
		lanSrc: pclanSource([]float64{0.4}, tx),
		thinks: experiment.Linspace(0.1, 2.4, rateSweepPoints),
		counts: counts,
		ref:    ref,
	}
	if e.traced {
		if err := s.machineSizes(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// machineSizes averages the size of the study's machine chains, the
// matrices the perturbation study's passage kernels stream; the traced
// run's computed kernel traffic uses it.
func (s *sweepRun) machineSizes() error {
	st := robustness.NewStudy()
	var nnz, rows, n float64
	for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
		for j := 0; j < robustness.NumMachines; j++ {
			m, err := st.MachineModel(mapping, j, false)
			if err != nil {
				return err
			}
			ss, err := derive.Explore(m, derive.Options{})
			if err != nil {
				return err
			}
			c := ctmc.FromStateSpace(ss)
			nnz += float64(c.Q.NNZ())
			rows += float64(c.N)
			n++
		}
	}
	s.meanNNZ, s.meanRows = nnz/n, rows/n
	return nil
}

func (s *sweepRun) op() (string, error) {
	v, err := s.sweep()
	if err != nil {
		return "sweep", err
	}
	if s.first == nil {
		s.first = v
		return "sweep", checkReference("sweep", v, s.ref)
	}
	if !identical(v, s.first) {
		return "sweep", fmt.Errorf("sweep: output differs from the first op")
	}
	return "sweep", nil
}

// sweep runs the three studies and checks each. Its values are both
// mappings' (nominal, worst, mean, best), the winner (0 for A, 1 for B),
// the rate sweep's measures, and the fluid sweep's throughputs.
func (s *sweepRun) sweep() ([]float64, error) {
	tr := s.e.tr
	var reg *obs.Registry
	if s.e.traced {
		reg = obs.NewRegistry()
	}
	sp := tr.begin("robustness.new_study")
	st := robustness.NewStudy()
	sp.end()
	st.Obs = reg
	sp = tr.begin("robustness.compare")
	a, b, winner, err := st.CompareMappings(compareTau, compareSpread, compareN, s.e.seed, compareSamples)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, rep := range []*robustness.PerturbationReport{a, b} {
		if !(0 <= rep.Worst && rep.Worst <= rep.Mean && rep.Mean <= rep.Best && rep.Best <= 1) {
			return nil, fmt.Errorf("sweep: mapping %s report out of order: worst %g mean %g best %g", rep.Mapping, rep.Worst, rep.Mean, rep.Best)
		}
	}
	vals := []float64{a.Nominal, a.Worst, a.Mean, a.Best, b.Nominal, b.Worst, b.Mean, b.Best, 0}
	if winner == robustness.MappingB {
		vals[8] = 1
	}

	sp = tr.begin("pepa.parse")
	lan, err := pepa.Parse(s.lanSrc)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("experiment.rate_sweep")
	series, err := experiment.RateSweep(lan, "think", s.thinks, experiment.Throughput{Action: "propagate"})
	sp.end()
	if err != nil {
		return nil, err
	}
	for i, p := range series.Points {
		if i > 0 && p.Measure < series.Points[i-1].Measure*(1-1e-9) {
			return nil, fmt.Errorf("sweep: throughput falls from %g to %g as think rises to %g", series.Points[i-1].Measure, p.Measure, p.Value)
		}
		vals = append(vals, p.Measure)
	}

	sp = tr.begin("gpepa.parse")
	fluid, err := gpepa.Parse(core.ClientServerGPEPAModel)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("gpepa.fluid_sweep")
	points, err := gpepa.ScalabilitySweep(fluid, "Clients", "Client", s.counts, fluidHorizon, "request")
	sp.end()
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if i > 0 && p.Throughput < points[i-1].Throughput*(1-fluidTol) {
			return nil, fmt.Errorf("sweep: fluid throughput falls from %g to %g at %g clients", points[i-1].Throughput, p.Throughput, p.Count)
		}
		vals = append(vals, p.Throughput)
	}

	if reg != nil {
		c := flatten(reg.Snapshot())
		c[kernelBytesKey] = kernelBytes(c["ctmc_uniformization_terms_total"], s.meanNNZ, s.meanRows)
		tr.addCounters(c)
	}
	return vals, nil
}

func (s *sweepRun) finish() error { return nil }
func (s *sweepRun) close()        {}

package robustness

import (
	"math"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/obs"
	"repro/internal/pepa/derive"
)

// freshFinishingCDF is the oracle for the family path: derive the study's
// machine model from scratch, build the chain cold, and solve the passage
// CDF exactly as FinishingCDF does.
func freshFinishingCDF(t *testing.T, s *Study, mapping string, j int, times []float64) *ctmc.PassageCDF {
	t.Helper()
	m, err := s.MachineModel(mapping, j, false)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := completionTargets(ss, j)
	if err != nil {
		t.Fatal(err)
	}
	chain := ctmc.FromStateSpace(ss)
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	return cdf
}

// TestFamilyPathByteIdentical pins the sweep optimization's exactness:
// every per-machine CDF the study serves through its chain-family cache —
// for the nominal study and for a perturbed copy re-rating the parent's
// prototypes — must be byte-identical to a fresh derivation.
func TestFamilyPathByteIdentical(t *testing.T) {
	times := []float64{10, 20, 40, 80}
	for _, mapping := range []string{MappingA, MappingB} {
		nominal := NewStudy()
		perturbed, err := nominal.Perturbed(0.3, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			tag string
			s   *Study
		}{{"nominal", nominal}, {"perturbed", perturbed}} {
			for j := 0; j < NumMachines; j++ {
				want := freshFinishingCDF(t, tc.s, mapping, j, times)
				got, err := tc.s.FinishingCDF(mapping, j, times)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Probs {
					if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
						t.Fatalf("%s/M%d %s: Probs[%d] = %x vs %x", mapping, j+1, tc.tag, i,
							math.Float64bits(got.Probs[i]), math.Float64bits(want.Probs[i]))
					}
				}
			}
		}
	}
}

// TestFamilySharedAcrossPerturbedCopies: the derive-once contract — a
// parent and its perturbed copies serve every machine solve from the
// family cache, and the cache holds exactly one entry per touched
// machine cell.
func TestFamilySharedAcrossPerturbedCopies(t *testing.T) {
	s := NewStudy()
	s.Obs = obs.NewRegistry()
	times := []float64{10, 40}
	if _, err := s.FinishingCDF(MappingA, 0, times); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3; k++ {
		p, err := s.Perturbed(0.3, 7+k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.FinishingCDF(MappingA, 0, times); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Obs.Counter("robustness_family_total", obs.L("outcome", "reuse")); got != 4 {
		t.Errorf("reuse = %g, want 4", got)
	}
	s.famMu.Lock()
	entries := len(s.families.m)
	s.famMu.Unlock()
	if entries != 1 {
		t.Errorf("family cache holds %d entries, want 1 (one per touched cell)", entries)
	}
}

// BenchmarkPerturbationSweep is the acceptance benchmark for the family
// path. /family is a 16-sample perturbation sweep (plus the nominal
// evaluation) on a fresh study, so it derives and builds every machine
// family per op. /warm is the benchmark sweep workload's per-mapping shape
// — 256 samples of mapping A — on a study whose families were built before
// the timer started. `make bench-sweep` tracks both; docs/PERFORMANCE.md
// records the measured numbers.
func BenchmarkPerturbationSweep(b *testing.B) {
	b.Run("family", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStudy()
			if _, err := s.RobustnessUnderPerturbation(MappingA, 60, 0.3, 16, 7, 40); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		s := NewStudy()
		if _, err := s.RobustnessUnderPerturbation(MappingA, 60, 0.3, 256, 7, 40); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RobustnessUnderPerturbation(MappingA, 60, 0.3, 256, 7, 40); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package robustness

import (
	"math"
	"testing"
)

func TestPerturbedDeterministicAndBounded(t *testing.T) {
	s := NewStudy()
	a, err := s.Perturbed(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Perturbed(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumApps; i++ {
		for j := 0; j < NumMachines; j++ {
			if a.ETC[i][j] != b.ETC[i][j] {
				t.Fatalf("perturbation not deterministic at (%d,%d)", i, j)
			}
			ratio := a.ETC[i][j] / s.ETC[i][j]
			if ratio < 0.7-1e-12 || ratio > 1.3+1e-12 {
				t.Errorf("perturbation ratio %g outside [0.7, 1.3]", ratio)
			}
		}
	}
	// The original study is untouched.
	fresh := NewStudy()
	for i := 0; i < NumApps; i++ {
		for j := 0; j < NumMachines; j++ {
			if s.ETC[i][j] != fresh.ETC[i][j] {
				t.Fatal("Perturbed mutated the original study")
			}
		}
	}
}

// TestPerturbedValidation: the spread must lie in [0, 1). NaN slips past
// a plain range test and would turn every ETC entry into NaN; 1.0 would
// allow a zero ETC.
func TestPerturbedValidation(t *testing.T) {
	s := NewStudy()
	for _, spread := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.0} {
		if _, err := s.Perturbed(spread, 1); err == nil {
			t.Errorf("spread %g accepted", spread)
		}
	}
	if _, err := s.Perturbed(0, 1); err != nil {
		t.Errorf("spread 0 rejected: %v", err)
	}
}

func TestRobustnessUnderPerturbation(t *testing.T) {
	s := NewStudy()
	rep, err := s.RobustnessUnderPerturbation(MappingA, 300, 0.2, 6, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 6 {
		t.Fatalf("values = %d", len(rep.Values))
	}
	if !(rep.Worst <= rep.Mean && rep.Mean <= rep.Best) {
		t.Errorf("summary out of order: worst=%g mean=%g best=%g", rep.Worst, rep.Mean, rep.Best)
	}
	for i := 1; i < len(rep.Values); i++ {
		if rep.Values[i] < rep.Values[i-1] {
			t.Error("values not sorted")
		}
	}
	// Perturbations straddle the nominal value (both slower and faster
	// draws occur for a symmetric spread with enough samples).
	if rep.Worst > rep.Nominal || rep.Best < rep.Nominal {
		t.Logf("note: all perturbations fell on one side of nominal (worst=%g nominal=%g best=%g) — possible but unusual",
			rep.Worst, rep.Nominal, rep.Best)
	}
	if rep.Worst < 0 || rep.Best > 1 {
		t.Errorf("probabilities out of range: %g..%g", rep.Worst, rep.Best)
	}
}

func TestLargerSpreadWidensWorstCase(t *testing.T) {
	s := NewStudy()
	small, err := s.RobustnessUnderPerturbation(MappingA, 300, 0.05, 5, 11, 25)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.RobustnessUnderPerturbation(MappingA, 300, 0.4, 5, 11, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !(large.Worst <= small.Worst) {
		t.Errorf("worst case did not degrade with spread: %g (0.4) vs %g (0.05)", large.Worst, small.Worst)
	}
}

func TestCompareMappings(t *testing.T) {
	s := NewStudy()
	a, b, winner, err := s.CompareMappings(300, 0.2, 4, 3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if winner != MappingA && winner != MappingB {
		t.Errorf("winner = %q", winner)
	}
	wantWinner := MappingA
	if b.Worst > a.Worst {
		wantWinner = MappingB
	}
	if winner != wantWinner {
		t.Errorf("winner = %s, but worst cases are A=%g B=%g", winner, a.Worst, b.Worst)
	}
}

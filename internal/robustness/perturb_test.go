package robustness

import (
	"math"
	"runtime"
	"strings"
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

// TestRobustnessValidatesSamplesAndDeadline: both robustness entry points
// share one check — at least one CDF sample and a finite, non-negative
// deadline. A zero sample count made the grid 0·τ/0 = NaN and a non-finite
// τ made grid point 0 τ·0 = NaN, and either hung the Poisson weights; a
// negative count panicked; RobustnessUnderPerturbation silently replaced a
// count <= 0 with 40.
func TestRobustnessValidatesSamplesAndDeadline(t *testing.T) {
	s := NewStudy()
	for _, tc := range []struct {
		tau     float64
		samples int
		want    string
	}{
		{60, 0, "sample"},
		{60, -1, "sample"},
		{math.NaN(), 10, "tau"},
		{math.Inf(1), 10, "tau"},
		{math.Inf(-1), 10, "tau"},
		{-1, 10, "tau = -1"},
	} {
		if _, err := s.Robustness(MappingA, tc.tau, tc.samples); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Robustness(tau=%g, samples=%d): err = %v, want it to mention %q", tc.tau, tc.samples, err, tc.want)
		}
		if _, err := s.RobustnessUnderPerturbation(MappingA, tc.tau, 0.3, 2, 7, tc.samples); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RobustnessUnderPerturbation(tau=%g, samples=%d): err = %v, want it to mention %q", tc.tau, tc.samples, err, tc.want)
		}
	}
	// A zero deadline is valid: no machine has finished at time 0.
	if r, err := s.Robustness(MappingA, 0, 4); err != nil || r != 0 {
		t.Errorf("Robustness(tau=0) = %g, %v; want 0, nil", r, err)
	}
}

// TestRobustnessUnderPerturbationWorkersBitIdentical: Workers bounds only
// the per-machine fan-out of the batched solves, so it changes no bit of
// the report.
func TestRobustnessUnderPerturbationWorkersBitIdentical(t *testing.T) {
	seq := NewStudy()
	seq.Workers = 1
	par4 := NewStudy()
	par4.Workers = 4
	a, err := seq.RobustnessUnderPerturbation(MappingB, 300, 0.3, 24, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par4.RobustnessUnderPerturbation(MappingB, 300, 0.3, 24, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Nominal, b.Nominal) || !same(a.Worst, b.Worst) || !same(a.Mean, b.Mean) || !same(a.Best, b.Best) {
		t.Fatalf("summary differs: workers=1 %+v, workers=4 %+v", a, b)
	}
	for k := range a.Values {
		if !same(a.Values[k], b.Values[k]) {
			t.Fatalf("Values[%d] = %x (workers=1) vs %x (workers=4)", k, math.Float64bits(a.Values[k]), math.Float64bits(b.Values[k]))
		}
	}
}

// TestPerturbationGridBytesIndependentOfMembers: RobustnessUnderPerturbation
// keeps one CDF value per member and machine, so the bytes a finer grid
// adds do not depend on the member count — going from 40 to 400 samples
// costs 64 members what it costs 16. Keeping every member's grid would
// add 8 bytes per member, machine and extra point; the test allows 1% of
// that for the 48 extra members.
func TestPerturbationGridBytesIndependentOfMembers(t *testing.T) {
	s := NewStudy()
	s.Workers = 1
	allocated := func(n, samples int) uint64 {
		// A first call builds the families and fills the Poisson tables.
		if _, err := s.RobustnessUnderPerturbation(MappingA, 60, 0.3, n, 7, samples); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RobustnessUnderPerturbation(MappingA, 60, 0.3, n, 7, samples); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	growth := func(n int) float64 { return float64(allocated(n, 400)) - float64(allocated(n, 40)) }
	small, large := growth(16), growth(64)
	perMember := float64(NumMachines * (64 - 16) * (400 - 40) * 8)
	if math.Abs(large-small) > perMember/100 {
		t.Errorf("40 -> 400 samples adds %.0f bytes at 16 members and %.0f at 64; storing every member's grid would add %.0f more", small, large, perMember)
	}
}

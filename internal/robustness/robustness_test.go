package robustness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

func TestTableIInvariants(t *testing.T) {
	if err := CheckTableI(); err != nil {
		t.Fatal(err)
	}
	a, err := TableI(MappingA)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check against the paper's table.
	if got := a[0]; len(got) != 5 || got[0] != 5 || got[4] != 20 {
		t.Errorf("Mapping A M1 = %v, want [5 9 12 17 20]", got)
	}
	if got := a[2]; len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Errorf("Mapping A M3 = %v, want [1 3 7]", got)
	}
	b, _ := TableI(MappingB)
	if got := b[0]; len(got) != 6 {
		t.Errorf("Mapping B M1 has %d apps, want 6", len(got))
	}
	if _, err := TableI("C"); err == nil {
		t.Error("unknown mapping accepted")
	}
}

func TestFormatTableI(t *testing.T) {
	s := FormatTableI()
	if !strings.Contains(s, "a5,a9,a12,a17,a20") {
		t.Errorf("Table I rendering missing M1/A row:\n%s", s)
	}
	if !strings.Contains(s, "a3,a4,a5,a17,a18,a20") {
		t.Errorf("Table I rendering missing M1/B row:\n%s", s)
	}
	if strings.Count(s, "\n") != 6 { // header + 5 machines
		t.Errorf("Table I has wrong row count:\n%s", s)
	}
}

func TestETCDeterministicAndPositive(t *testing.T) {
	a, b := NewStudy(), NewStudy()
	for i := 0; i < NumApps; i++ {
		for j := 0; j < NumMachines; j++ {
			if a.ETC[i][j] != b.ETC[i][j] {
				t.Fatalf("ETC not deterministic at (%d,%d)", i, j)
			}
			if a.ETC[i][j] <= 0 {
				t.Fatalf("ETC[%d][%d] = %g", i, j, a.ETC[i][j])
			}
		}
	}
}

func TestMachineModelStructure(t *testing.T) {
	s := NewStudy()
	m, err := s.MachineModel(MappingA, 2, false) // M3: a1, a3, a7
	if err != nil {
		t.Fatal(err)
	}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatal(res.Err())
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps -> 4 machine stages; x 2 availability states, minus the
	// unreachable/collapsed combinations. Expect (3 stages x 2 avail) +
	// done states.
	if ss.NumStates() < 6 || ss.NumStates() > 10 {
		t.Errorf("M3 state space = %d states", ss.NumStates())
	}
	// The exec actions of M3's apps must appear.
	for _, a := range []string{"exec_a1", "exec_a3", "exec_a7"} {
		found := false
		for _, at := range ss.ActionTypes {
			if at == a {
				found = true
			}
		}
		if !found {
			t.Errorf("action %s missing from M3 model", a)
		}
	}
}

func TestCyclicModelHasNoDeadlock(t *testing.T) {
	s := NewStudy()
	m, err := s.MachineModel(MappingA, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dl := ss.Deadlocks(); len(dl) != 0 {
		t.Errorf("cyclic model has deadlocks: %v", dl)
	}
	// Cyclic machine models admit a steady state.
	chain := ctmc.FromStateSpace(ss)
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("steady state sums to %g", sum)
	}
}

func TestFinishingCDFShape(t *testing.T) {
	s := NewStudy()
	times := grid(0, 400, 40)
	cdf, err := s.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Probs[0] != 0 {
		t.Errorf("CDF(0) = %g", cdf.Probs[0])
	}
	for i := 1; i < len(cdf.Probs); i++ {
		if cdf.Probs[i] < cdf.Probs[i-1]-1e-9 {
			t.Errorf("CDF not monotone at %g", times[i])
		}
	}
	if last := cdf.Probs[len(cdf.Probs)-1]; last < 0.95 {
		t.Errorf("CDF at horizon = %g, want near 1", last)
	}
}

func TestMappingBSlowerForM1(t *testing.T) {
	// Mapping B assigns 6 applications to M1 versus 5 under Mapping A, so
	// its finishing-time CDF should lie to the right (the Fig 3 vs Fig 4
	// shape criterion).
	s := NewStudy()
	times := grid(0, 600, 60)
	a, err := s.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.FinishingCDF(MappingB, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	medA := a.Quantile(0.5)
	medB := b.Quantile(0.5)
	if !(medA < medB) {
		t.Errorf("median finishing times: A=%g, B=%g; expected A faster on M1", medA, medB)
	}
}

func TestAvailabilitySlowsFinishing(t *testing.T) {
	// Increasing the failure rate must shift the CDF right.
	fast := NewStudy()
	slow := NewStudy()
	slow.FailRate = 1.0
	slow.RepairRate = 0.1
	times := grid(0, 800, 80)
	cf, err := fast.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := slow.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	if !(cs.Quantile(0.5) > cf.Quantile(0.5)) {
		t.Errorf("failures did not slow machine: %g vs %g", cs.Quantile(0.5), cf.Quantile(0.5))
	}
}

func TestMakespanBelowSlowestMachine(t *testing.T) {
	s := NewStudy()
	times := grid(0, 800, 40)
	mk, err := s.MakespanCDF(MappingA, times)
	if err != nil {
		t.Fatal(err)
	}
	// Makespan CDF is a product of machine CDFs, so it is bounded above by
	// each machine's CDF.
	for j := 0; j < NumMachines; j++ {
		mc, err := s.FinishingCDF(MappingA, j, times)
		if err != nil {
			t.Fatal(err)
		}
		for i := range times {
			if mk.Probs[i] > mc.Probs[i]+1e-9 {
				t.Fatalf("makespan CDF above machine %d CDF at t=%g", j+1, times[i])
			}
		}
	}
	for i := 1; i < len(mk.Probs); i++ {
		if mk.Probs[i] < mk.Probs[i-1]-1e-9 {
			t.Errorf("makespan CDF not monotone at %g", times[i])
		}
	}
}

func TestRobustnessMetric(t *testing.T) {
	s := NewStudy()
	r, err := s.Robustness(MappingA, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > 1 {
		t.Errorf("robustness = %g", r)
	}
	// A hopeless deadline gives near-zero robustness.
	r0, err := s.Robustness(MappingA, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r0 > 0.01 {
		t.Errorf("robustness at tau=1 = %g, want ~0", r0)
	}
	if !(r > r0) {
		t.Errorf("robustness not increasing in deadline: %g vs %g", r, r0)
	}
}

func TestActivityDiagramOutputs(t *testing.T) {
	s := NewStudy()
	dot, err := s.ActivityDiagram(MappingA, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph activity", "exec_a1", "exec_a3", "exec_a7", "machine M3"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	txt, err := s.ActivityText(MappingA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "activities:") || !strings.Contains(txt, "exec_a7") {
		t.Errorf("text diagram incomplete:\n%s", txt)
	}
}

// TestPEPASourceRoundTrips: a machine model's PEPA concrete syntax, the
// file fed to the containerized solver, parses, checks and derives.
func TestPEPASourceRoundTrips(t *testing.T) {
	s := NewStudy()
	model, err := s.MachineModel(MappingA, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	src := model.String()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatalf("generated PEPA source does not reparse: %v\n%s", err, src)
	}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatalf("generated source fails checks: %v", res.Err())
	}
	if _, err := derive.Explore(m, derive.Options{}); err != nil {
		t.Fatalf("generated source does not derive: %v", err)
	}
}

func TestMachineModelBadInputs(t *testing.T) {
	s := NewStudy()
	if _, err := s.MachineModel("Z", 0, false); err == nil {
		t.Error("unknown mapping accepted")
	}
	if _, err := s.MachineModel(MappingA, 9, false); err == nil {
		t.Error("machine index out of range accepted")
	}
}

func grid(t0, t1 float64, n int) []float64 {
	ts := make([]float64, n+1)
	for i := range ts {
		ts[i] = t0 + (t1-t0)*float64(i)/float64(n)
	}
	return ts
}

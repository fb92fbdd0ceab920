package ctmc

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestInstrumentationNeutrality is the conformance-style guard for the
// observability layer: attaching a metrics registry to a chain must not
// change a single bit of any numerical result. Each solver runs twice —
// bare and instrumented — and the outputs are compared for exact
// (bitwise) equality, not within a tolerance.
func TestInstrumentationNeutrality(t *testing.T) {
	rates := map[[2]int]float64{
		{0, 1}: 2, {1, 2}: 1.5, {2, 0}: 3, {1, 0}: 0.5, {2, 1}: 0.25,
	}
	bare := NewChain(3, rates)
	instr := NewChain(3, rates)
	instr.Obs = obs.NewRegistry()

	piA, errA := bare.SteadyState(SteadyStateOptions{})
	piB, errB := instr.SteadyState(SteadyStateOptions{})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("steady-state error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(piA, piB) {
		t.Errorf("steady-state differs with instrumentation: %v vs %v", piA, piB)
	}

	ptA, errA := bare.Transient(bare.PointMass(0), 2.5, 1e-10)
	ptB, errB := instr.Transient(instr.PointMass(0), 2.5, 1e-10)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("transient error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(ptA, ptB) {
		t.Errorf("transient differs with instrumentation: %v vs %v", ptA, ptB)
	}

	times := []float64{0.5, 1, 2, 4}
	cdfA, errA := bare.FirstPassageCDF(bare.PointMass(0), []int{2}, times, 1e-10)
	cdfB, errB := instr.FirstPassageCDF(instr.PointMass(0), []int{2}, times, 1e-10)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("passage error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(cdfA.Probs, cdfB.Probs) {
		t.Errorf("passage CDF differs with instrumentation: %v vs %v", cdfA.Probs, cdfB.Probs)
	}

	// The batched passage: a registry changes no bit of it, and it advances
	// the solve counters by exactly the per-member path's totals. The
	// members form a lockstep pair and a singleton.
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	members := [][]float64{{1.5, 0.25}, {1.5, 0.25}, {0.7, 3.1}}
	p0 := make([]float64, fam.StateSpace().NumStates())
	p0[0] = 1
	batchReg := obs.NewRegistry()
	rowsA, errA := passageRows(t, fam, members, p0, []int{1}, times, 1e-10, nil)
	rowsB, errB := passageRows(t, fam, members, p0, []int{1}, times, 1e-10, batchReg)
	if errA != nil || errB != nil {
		t.Fatalf("batch errors: %v, %v", errA, errB)
	}
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Errorf("batched passage differs with instrumentation: %v vs %v", rowsA, rowsB)
	}
	memberReg := obs.NewRegistry()
	for _, row := range members {
		member, err := fam.ChainForRates(map[string]float64{"r1": row[0], "r2": row[1]})
		if err != nil {
			t.Fatal(err)
		}
		member.Obs = memberReg
		if _, err := member.FirstPassageCDF(p0, []int{1}, times, 1e-10); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"ctmc_transient_solves_total", "ctmc_uniformization_terms_total"} {
		if got, want := batchReg.Counter(name), memberReg.Counter(name); got != want || want == 0 {
			t.Errorf("%s: batch %g, per-member path %g", name, got, want)
		}
	}

	// The comparison is vacuous if the registry never recorded anything.
	if got := instr.Obs.Counter("ctmc_transient_solves_total"); got == 0 {
		t.Error("instrumented run recorded no transient solves")
	}
	if got := instr.Obs.Counter("ctmc_steady_stages_total",
		obs.L("method", "gauss-seidel"), obs.L("outcome", "accepted")); got == 0 {
		t.Error("instrumented run recorded no accepted steady-state stage")
	}
}

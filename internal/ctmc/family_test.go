package ctmc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

// famTemplate mixes constant references, a literal, and an active/passive
// cooperation — the shape the robustness machines have.
const famTemplate = `
	r1 = %R1%; r2 = %R2%;
	P = (task, r1).P1; P1 = (reset, r2).P;
	Q = (task, T).Q1; Q1 = (go, 2.5).Q;
	P <task> Q`

func famModel(t *testing.T, r1, r2 string) *pepa.Model {
	t.Helper()
	src := strings.ReplaceAll(strings.ReplaceAll(famTemplate, "%R1%", r1), "%R2%", r2)
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatalf("check: %v", res.Err())
	}
	return m
}

func famExplore(t *testing.T, m *pepa.Model) *derive.StateSpace {
	t.Helper()
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func chainsByteIdentical(t *testing.T, tag string, got, want *Chain) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d vs %d", tag, got.N, want.N)
	}
	if len(got.Q.RowPtr) != len(want.Q.RowPtr) || len(got.Q.ColIdx) != len(want.Q.ColIdx) {
		t.Fatalf("%s: pattern size differs", tag)
	}
	for i, p := range want.Q.RowPtr {
		if got.Q.RowPtr[i] != p {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", tag, i, got.Q.RowPtr[i], p)
		}
	}
	for k, j := range want.Q.ColIdx {
		if got.Q.ColIdx[k] != j {
			t.Fatalf("%s: ColIdx[%d] = %d vs %d", tag, k, got.Q.ColIdx[k], j)
		}
	}
	for k, v := range want.Q.Val {
		if math.Float64bits(got.Q.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: Val[%d] = %x vs %x", tag, k, math.Float64bits(got.Q.Val[k]), math.Float64bits(v))
		}
	}
	for i, v := range want.ExitRate {
		if math.Float64bits(got.ExitRate[i]) != math.Float64bits(v) {
			t.Fatalf("%s: ExitRate[%d] differs", tag, i)
		}
	}
	if len(got.ActionRate) != len(want.ActionRate) {
		t.Fatalf("%s: actions %d vs %d", tag, len(got.ActionRate), len(want.ActionRate))
	}
	for a, ws := range want.ActionRate {
		gs, ok := got.ActionRate[a]
		if !ok {
			t.Fatalf("%s: missing action %q", tag, a)
		}
		for i, v := range ws {
			if math.Float64bits(gs[i]) != math.Float64bits(v) {
				t.Fatalf("%s: ActionRate[%q][%d] differs", tag, a, i)
			}
		}
	}
}

// TestChainFamilyBitIdenticalToFreshDerive pins the tentpole exactness
// claim: a family member assembled by plan-gather is byte-identical — Q
// pattern and values, exit rates, action rates — to deriving the
// re-rated model from scratch and running the cold FromStateSpace path.
func TestChainFamilyBitIdenticalToFreshDerive(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ r1, r2 string }{
		{"1.5", "0.25"}, // the prototype's own rates
		{"0.7234985172345", "3.1121314151617"},
		{"1e-6", "1e6"}, // stiff member
	}
	for _, tc := range cases {
		env := map[string]float64{
			"r1": mustParseFloat(t, tc.r1),
			"r2": mustParseFloat(t, tc.r2),
		}
		member, err := fam.ChainForRates(env)
		if err != nil {
			t.Fatalf("r1=%s r2=%s: %v", tc.r1, tc.r2, err)
		}
		fresh := FromStateSpace(famExplore(t, famModel(t, tc.r1, tc.r2)))
		chainsByteIdentical(t, "r1="+tc.r1, member, fresh)
	}
}

func mustParseFloat(t *testing.T, s string) float64 {
	t.Helper()
	// Route through the PEPA parser so the test's env bits are exactly
	// the bits a literal in source would produce.
	m, err := pepa.Parse("x = " + s + "; P = (a, x).P; P")
	if err != nil {
		t.Fatal(err)
	}
	return m.Rates["x"]
}

// TestChainFamilyPassageBitIdentical: the passage CDF of a family member
// (absorbing transform built directly from the member's CSR) must be
// byte-identical to the fresh chain's.
func TestChainFamilyPassageBitIdentical(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"r1": 0.7234985172345, "r2": 3.1121314151617}
	member, err := fam.ChainForRates(env)
	if err != nil {
		t.Fatal(err)
	}
	fresh := FromStateSpace(famExplore(t, famModel(t, "0.7234985172345", "3.1121314151617")))
	ssFresh := famExplore(t, famModel(t, "0.7234985172345", "3.1121314151617"))
	targets := ssFresh.StatesMatching(func(term string) bool { return strings.Contains(term, "Q1") })
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	times := []float64{0.5, 1, 2, 4}
	got, err := member.FirstPassageCDF(member.PointMass(0), targets, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.FirstPassageCDF(fresh.PointMass(0), targets, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Probs {
		if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
			t.Fatalf("Probs[%d] = %x vs %x", i, math.Float64bits(got.Probs[i]), math.Float64bits(want.Probs[i]))
		}
	}
}

// TestChainFamilyErrors: opaque provenance blocks family construction,
// and member construction validates the environment.
func TestChainFamilyErrors(t *testing.T) {
	m, err := pepa.Parse("r = 2; P = (a, 2*r).P; P")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChainFamily(famExplore(t, m)); !errors.Is(err, derive.ErrNotReratable) {
		t.Fatalf("err = %v, want ErrNotReratable", err)
	} else if !strings.Contains(err.Error(), `activity "a"`) {
		t.Errorf("error does not name the opaque activity: %v", err)
	}
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fam.ChainForRates(map[string]float64{"r1": 1}); err == nil {
		t.Error("missing constant accepted")
	}
	if _, err := fam.ChainForRates(map[string]float64{"r1": 1, "r2": -2}); err == nil {
		t.Error("non-positive constant accepted")
	}
}

// TestChainForRatesRejectsNonFiniteOrNonPositive: a member rate must be
// finite and positive. NaN slips past a plain v <= 0 test, and ±Inf
// would build a generator with no CTMC meaning.
func TestChainForRatesRejectsNonFiniteOrNonPositive(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2} {
		if _, err := fam.ChainForRates(map[string]float64{"r1": 1, "r2": v}); err == nil {
			t.Errorf("r2=%g accepted", v)
		}
	}
}

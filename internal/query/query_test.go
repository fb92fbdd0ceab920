package query

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

func solved(t *testing.T, src string) (*derive.StateSpace, *ctmc.Chain) {
	t.Helper()
	m := pepa.MustParse(src)
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, ctmc.FromStateSpace(ss)
}

const workRest = "P = (work, 2).P1; P1 = (rest, 1).P; P"

func TestParseForms(t *testing.T) {
	cases := map[string]Property{
		`S >= 0.5 [ "P1" ]`:           {Kind: SteadyState, Cmp: GE, Bound: 0.5, Pattern: "P1"},
		`S<0.9["Down"]`:               {Kind: SteadyState, Cmp: LT, Bound: 0.9, Pattern: "Down"},
		`P >= 0.95 [ F<=100 "Done" ]`: {Kind: Reachability, Cmp: GE, Bound: 0.95, Pattern: "Done", Horizon: 100},
		`T > 1.5 [ serve ]`:           {Kind: ThroughputK, Cmp: GT, Bound: 1.5, Pattern: "serve"},
	}
	for src, want := range cases {
		got, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got.Kind != want.Kind || got.Cmp != want.Cmp || got.Bound != want.Bound ||
			got.Pattern != want.Pattern || got.Horizon != want.Horizon {
			t.Errorf("%q parsed to %+v, want %+v", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		`X >= 0.5 [ "P" ]`,
		`S 0.5 [ "P" ]`,
		`S >= [ "P" ]`,
		`S >= 0.5 "P"`,
		`S >= 0.5 [ P ]`,
		`S >= 0.5 [ "" ]`,
		`P >= 0.5 [ "Done" ]`,      // missing F
		`P >= 0.5 [ F "Done" ]`,    // missing time bound
		`P >= 0.5 [ F<=0 "Done" ]`, // zero horizon
		`T >= 0.5 [ "serve" ]`,     // quoted action
		`T >= 0.5 [ two words ]`,   // spaces
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestSteadyStateProperty(t *testing.T) {
	ss, chain := solved(t, workRest)
	// pi(P1) = 2/3.
	r, err := Check(ss, chain, mustParse(t, `S >= 0.6 [ "P1" ]`))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds {
		t.Errorf("property should hold: %s", r)
	}
	if math.Abs(r.Value-2.0/3) > 1e-9 {
		t.Errorf("value = %g, want 2/3", r.Value)
	}
	r2, err := Check(ss, chain, mustParse(t, `S >= 0.7 [ "P1" ]`))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Holds {
		t.Errorf("property should fail: %s", r2)
	}
}

func TestReachabilityProperty(t *testing.T) {
	// Exp(1) passage: P(reach within 1) = 1 - 1/e ~ 0.632.
	ss, chain := solved(t, "P0 = (go, 1).PEnd; PEnd = (idle, 0.000001).PEnd; P0")
	r, err := Check(ss, chain, mustParse(t, `P >= 0.6 [ F<=1 "PEnd" ]`))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds {
		t.Errorf("property should hold: %s", r)
	}
	if math.Abs(r.Value-(1-math.Exp(-1))) > 1e-6 {
		t.Errorf("value = %g", r.Value)
	}
	r2, err := Check(ss, chain, mustParse(t, `P >= 0.99 [ F<=1 "PEnd" ]`))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Holds {
		t.Errorf("property should fail: %s", r2)
	}
}

func TestThroughputProperty(t *testing.T) {
	ss, chain := solved(t, workRest)
	// throughput(work) = 2/3.
	r, err := Check(ss, chain, mustParse(t, `T >= 0.5 [ work ]`))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Holds || math.Abs(r.Value-2.0/3) > 1e-9 {
		t.Errorf("result = %s", r)
	}
	r2, err := Check(ss, chain, mustParse(t, `T <= 0.5 [ work ]`))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Holds {
		t.Errorf("property should fail: %s", r2)
	}
}

func TestCheckErrors(t *testing.T) {
	ss, chain := solved(t, workRest)
	if _, err := Check(ss, chain, mustParse(t, `S >= 0.5 [ "Nowhere" ]`)); err == nil {
		t.Error("unmatched pattern accepted")
	}
	if _, err := Check(ss, chain, mustParse(t, `T >= 0.5 [ ghost ]`)); err == nil {
		t.Error("unknown action accepted")
	}
}

func TestCheckAll(t *testing.T) {
	ss, chain := solved(t, workRest)
	results, err := CheckAll(ss, chain, []string{
		`S >= 0.6 [ "P1" ]`,
		`T >= 0.5 [ work ]`,
		`T < 0.7 [ rest ]`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Holds {
			t.Errorf("expected all to hold: %s", r)
		}
		if !strings.Contains(r.String(), "true") {
			t.Errorf("render: %s", r)
		}
	}
	if _, err := CheckAll(ss, chain, []string{"garbage"}); err == nil {
		t.Error("bad property accepted by CheckAll")
	}
}

// TestCheckAllSolvesSteadyStateOnce: the S and T properties of one
// CheckAll call share one steady-state solve, counted by the accepted
// stages the chain records.
func TestCheckAllSolvesSteadyStateOnce(t *testing.T) {
	ss, chain := solved(t, workRest)
	chain.Obs = obs.NewRegistry()
	if _, err := CheckAll(ss, chain, []string{
		`S >= 0.6 [ "P1" ]`,
		`T >= 0.5 [ work ]`,
		`S < 0.5 [ "P" ]`,
	}); err != nil {
		t.Fatal(err)
	}
	solves := 0.0
	for _, stage := range []string{"gauss-seidel", "power-iteration", "bicgstab", "dense-lu"} {
		solves += chain.Obs.Counter("ctmc_steady_stages_total", obs.L("method", stage), obs.L("outcome", "accepted"))
	}
	if solves != 1 {
		t.Errorf("CheckAll solved the steady state %v times, want once", solves)
	}
}

func mustParse(t *testing.T, src string) *Property {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

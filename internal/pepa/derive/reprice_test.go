package derive

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/pepa"
)

func parseChecked(t *testing.T, src string) *pepa.Model {
	t.Helper()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatalf("check: %v", res.Err())
	}
	return m
}

// TestRepriceMatchesFreshExplore: re-rating a derived state space must be
// byte-identical to deriving the re-rated model from scratch — states,
// numbering, transitions, and every rate bit. The model mixes constant
// references, a literal, and an active/passive cooperation (the shape the
// robustness machines use).
func TestRepriceMatchesFreshExplore(t *testing.T) {
	const template = `
		r1 = %REPLACED%; r2 = %REPLACED2%;
		P = (task, r1).P1; P1 = (reset, r2).P;
		Q = (task, T).Q1; Q1 = (go, 2.5).Q;
		P <task> Q`
	src := func(a, b string) string {
		return strings.ReplaceAll(strings.ReplaceAll(template, "%REPLACED%", a), "%REPLACED2%", b)
	}
	proto, err := Explore(parseChecked(t, src("1.5", "0.25")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.CheckReratable(); err != nil {
		t.Fatalf("prototype not reratable: %v", err)
	}
	// Values with full mantissas so any drift is visible bitwise.
	env := map[string]float64{"r1": 0.7234985172345, "r2": 3.1121314151617}
	repriced, err := Reprice(proto, env)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Explore(parseChecked(t, src("0.7234985172345", "3.1121314151617")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(repriced.States) != len(fresh.States) {
		t.Fatalf("states %d vs %d", len(repriced.States), len(fresh.States))
	}
	for s := range fresh.States {
		if repriced.States[s] != fresh.States[s] {
			t.Fatalf("state %d: %q vs %q", s, repriced.States[s], fresh.States[s])
		}
		if len(repriced.Trans[s]) != len(fresh.Trans[s]) {
			t.Fatalf("state %d: %d vs %d transitions", s, len(repriced.Trans[s]), len(fresh.Trans[s]))
		}
		for i, a := range fresh.Trans[s] {
			got := repriced.Trans[s][i]
			if got.Action != a.Action || got.From != a.From || got.To != a.To {
				t.Fatalf("state %d transition %d: %+v vs %+v", s, i, got, a)
			}
			if math.Float64bits(got.Rate) != math.Float64bits(a.Rate) {
				t.Fatalf("state %d transition %d: rate %x vs %x", s, i,
					math.Float64bits(got.Rate), math.Float64bits(a.Rate))
			}
		}
	}
	// The structural slices are shared, not copied.
	if &repriced.States[0] != &proto.States[0] {
		t.Error("States not shared with the prototype")
	}
	// The prototype itself is untouched.
	if proto.Trans[0][0].Rate != 1.5 {
		t.Errorf("prototype mutated: rate %g", proto.Trans[0][0].Rate)
	}
}

func TestRepriceErrors(t *testing.T) {
	proto, err := Explore(parseChecked(t, "r = 2; P = (a, r).P1; P1 = (b, 1).P; P"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reprice(proto, map[string]float64{}); err == nil {
		t.Error("missing constant accepted")
	}
	if _, err := Reprice(proto, map[string]float64{"r": 9}); err != nil {
		t.Errorf("valid environment rejected: %v", err)
	}
}

// TestRepriceRejectsNonFiniteOrNonPositive: a repriced rate must be
// finite and positive. NaN slips past a plain v <= 0 test.
func TestRepriceRejectsNonFiniteOrNonPositive(t *testing.T) {
	proto, err := Explore(parseChecked(t, "r = 2; P = (a, r).P1; P1 = (b, 1).P; P"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := Reprice(proto, map[string]float64{"r": v}); err == nil {
			t.Errorf("r=%g accepted", v)
		}
	}
}

// TestOpaqueProvenanceBlocksReprice: rate arithmetic, both-active
// synchronization, and multi-transition apparent rates must all be left
// opaque — repricing them with a plain lookup would be wrong.
func TestOpaqueProvenanceBlocksReprice(t *testing.T) {
	cases := map[string]string{
		"arithmetic":  "r = 2; P = (a, 2*r).P; P",
		"both-active": "r = 2; P = (a, r).P; Q = (a, 3).Q; P <a> Q",
		"multi-trans": "r = 2; P = (a, r).P + (a, r).P; Q = (a, T).Q; P <a> Q",
	}
	for name, src := range cases {
		proto, err := Explore(parseChecked(t, src), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := proto.CheckReratable(); !errors.Is(err, ErrNotReratable) {
			t.Errorf("%s: CheckReratable = %v, want ErrNotReratable", name, err)
		}
		if _, err := Reprice(proto, map[string]float64{"r": 5}); !errors.Is(err, ErrNotReratable) {
			t.Errorf("%s: err = %v, want ErrNotReratable", name, err)
		}
	}
}

// TestSingletonPassiveCoopKeepsConstProvenance pins the exactness claim:
// one active transition against one passive one carries the active
// constant through bit-for-bit, and its provenance survives.
func TestSingletonPassiveCoopKeepsConstProvenance(t *testing.T) {
	ss, err := Explore(parseChecked(t,
		"r = 0.30000000000000004; P = (a, r).P; Q = (a, T).Q; P <a> Q"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := ss.Trans[0][0]
	if a.Src.Const != "r" {
		t.Fatalf("Src = %+v, want Const %q", a.Src, "r")
	}
	if math.Float64bits(a.Rate) != math.Float64bits(0.30000000000000004) {
		t.Fatalf("rate %x not the constant's bits", math.Float64bits(a.Rate))
	}
}

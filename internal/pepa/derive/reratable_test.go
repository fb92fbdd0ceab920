package derive

import (
	"errors"
	"math"
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

// TestOpaqueProvenanceBlocksReprice: rate arithmetic, both-active
// synchronization, and multi-transition apparent rates must all be left
// opaque — re-rating them with a plain lookup would be wrong.
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

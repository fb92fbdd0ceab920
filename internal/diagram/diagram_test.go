package diagram

import (
	"strings"
	"testing"

	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

func space(t *testing.T, src string) *derive.StateSpace {
	t.Helper()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestDOTStructure(t *testing.T) {
	ss := space(t, "P = (go, 1.5).P1; P1 = (back, 0.5).P; P")
	dot := DOT(ss, "cycle")
	for _, want := range []string{
		"digraph activity", `label="cycle"`,
		`n0 [label="S0", shape=doublecircle]`,
		`n1 [label="S1", shape=circle]`,
		`n0 -> n1 [label="(go, 1.5)"]`,
		`n1 -> n0 [label="(back, 0.5)"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDOTShortLabelsAndLegend(t *testing.T) {
	ss := space(t, "P = (a, 1).P1; P1 = (b, 1).P; P")
	dot := DOT(ss, "")
	if !strings.Contains(dot, `label="S0"`) || !strings.Contains(dot, "// S1 = P1") {
		t.Errorf("short labels/legend missing:\n%s", dot)
	}
}

func TestTextMarksInitialAndAbsorbing(t *testing.T) {
	ss := space(t, "P = (a, 1).Q; Q = (halt, 0.001).Q; P")
	// Make an absorbing-looking state: Q self-loops so nothing is
	// absorbing here; check initial marker only.
	txt := Text(ss, "demo")
	if !strings.Contains(txt, "> S0") {
		t.Errorf("initial marker missing:\n%s", txt)
	}
	if !strings.Contains(txt, "S0 --(a, 1)--> S1") {
		t.Errorf("transition line missing:\n%s", txt)
	}
}

func TestTextAbsorbingMarker(t *testing.T) {
	// A blocked cooperation produces a genuine deadlock state.
	ss := space(t, "P = (a, 1).P; Q = (b, 1).Q1; Q1 = (b, 1).Q1; P <a,b> Q")
	txt := Text(ss, "")
	if !strings.Contains(txt, "* S0") {
		t.Errorf("absorbing marker missing:\n%s", txt)
	}
}

func TestActionSummary(t *testing.T) {
	ss := space(t, "P = (a, 1).P1 + (b, 2).P1; P1 = (a, 3).P; P")
	sum := ActionSummary(ss)
	if !strings.Contains(sum, "a\t2\t4") {
		t.Errorf("summary wrong:\n%s", sum)
	}
	if !strings.Contains(sum, "b\t1\t2") {
		t.Errorf("summary wrong:\n%s", sum)
	}
}

func TestDeterministicRendering(t *testing.T) {
	src := "P = (a, 1).P1; P1 = (b, 1).P2; P2 = (c, 1).P; P"
	a := DOT(space(t, src), "")
	b := DOT(space(t, src), "")
	if a != b {
		t.Error("DOT output not deterministic")
	}
}

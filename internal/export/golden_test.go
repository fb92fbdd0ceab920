package export

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/goldentest"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

// Golden coverage for every interchange writer on one fixed cooperating
// model, so a formatting regression in any emitter shows up as a byte
// diff rather than a downstream tool mis-parse. Regenerate with
// `go test ./internal/export -update`.

func goldenModel(t *testing.T) (*derive.StateSpace, *ctmc.Chain, []float64) {
	t.Helper()
	m := pepa.MustParse(`
		P = (work, 2).P1; P1 = (rest, 1.5).P;
		Q = (work, T).Q1; Q1 = (log, 0.25).Q;
		P <work> Q`)
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain := ctmc.FromStateSpace(ss)
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, chain, pi
}

func render(t *testing.T, fn func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestGoldenExports(t *testing.T) {
	ss, chain, pi := goldenModel(t)
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), []int{ss.NumStates() - 1}, []float64{0, 0.5, 1, 2, 4}, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string]string{
		"generator.mtx":   render(t, func(w *bytes.Buffer) error { return GeneratorMatrixMarket(w, chain) }),
		"transitions.csv": render(t, func(w *bytes.Buffer) error { return TransitionsCSV(w, ss) }),
		"steady.csv":      render(t, func(w *bytes.Buffer) error { return SteadyStateCSV(w, ss, pi) }),
		"passage.tsv":     render(t, func(w *bytes.Buffer) error { return CDFTSV(w, cdf) }),
	}
	for name, got := range outputs {
		t.Run(name, func(t *testing.T) {
			goldentest.Check(t, filepath.Join("testdata", "goldens", name), got)
		})
	}
}

// TestGoldenLocaleIndependence pins the invariant that the emitters
// format numbers with '.' decimal points regardless of the process
// locale: rendering under a comma-decimal locale must be byte-identical.
// (Go's fmt is locale-blind by design; this guards against a future
// switch to a locale-aware formatter.)
func TestGoldenLocaleIndependence(t *testing.T) {
	_, chain, _ := goldenModel(t)
	before := render(t, func(w *bytes.Buffer) error { return GeneratorMatrixMarket(w, chain) })
	for _, v := range []string{"LC_ALL", "LC_NUMERIC", "LANG"} {
		old, had := os.LookupEnv(v)
		os.Setenv(v, "de_DE.UTF-8")
		defer func(v, old string, had bool) {
			if had {
				os.Setenv(v, old)
			} else {
				os.Unsetenv(v)
			}
		}(v, old, had)
	}
	after := render(t, func(w *bytes.Buffer) error { return GeneratorMatrixMarket(w, chain) })
	if before != after {
		t.Error("Matrix Market output changed under de_DE locale")
	}
}

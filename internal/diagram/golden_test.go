package diagram

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/goldentest"
)

// Golden coverage for the diagram renderers on a model with a choice, a
// cooperation, and an absorbing state, so every marker and label path is
// exercised. Regenerate with `go test ./internal/diagram -update`.

const goldenSrc = `
	P = (step, 1.5).P1 + (skip, 0.5).P2;
	P1 = (step, 1.5).P2; P2 = (reset, 0.25).P;
	Q = (step, T).Q;
	P <step> Q`

func TestGoldenDiagrams(t *testing.T) {
	ss := space(t, goldenSrc)
	outputs := map[string]string{
		"activity.dot": DOT(ss, "golden"),
		"activity.txt": Text(ss, "golden"),
		"summary.tsv":  ActionSummary(ss),
	}
	for name, got := range outputs {
		t.Run(name, func(t *testing.T) {
			goldentest.Check(t, filepath.Join("testdata", "goldens", name), got)
		})
	}
}

// TestGoldenLocaleIndependence: rendering under a comma-decimal locale
// must not change a byte (rates like 1.5 keep their '.' separator).
func TestGoldenLocaleIndependence(t *testing.T) {
	ss := space(t, goldenSrc)
	before := DOT(ss, "golden")
	for _, v := range []string{"LC_ALL", "LC_NUMERIC", "LANG"} {
		old, had := os.LookupEnv(v)
		os.Setenv(v, "fr_FR.UTF-8")
		defer func(v, old string, had bool) {
			if had {
				os.Setenv(v, old)
			} else {
				os.Unsetenv(v)
			}
		}(v, old, had)
	}
	if after := DOT(ss, "golden"); after != before {
		t.Error("DOT output changed under fr_FR locale")
	}
}

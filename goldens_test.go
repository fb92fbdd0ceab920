package repro

// Golden-file regression tests: every experiment output is fully
// deterministic (fixed seeds, sorted iteration, content-addressed
// builds), so the exact bytes are asserted. Regenerate with:
//
//	go test -run TestGolden -update .
import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/paper"
	"repro/internal/robustness"
)

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	goldentest.Check(t, filepath.Join("testdata", "goldens", name), got)
}

// TestGoldenPaperPass opens one paper pass and pins every fault-free
// experiment's output to testdata/goldens/<name>.txt, the file
// `repro -outdir` writes.
func TestGoldenPaperPass(t *testing.T) {
	ctx := context.Background()
	p, err := paper.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, ex := range paper.Experiments() {
		t.Run(ex.Name, func(t *testing.T) {
			out, err := ex.Run(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, ex.Name+".txt", out)
		})
	}
}

func cdfTable(t *testing.T, mapping string) string {
	t.Helper()
	s := robustness.NewStudy()
	times := make([]float64, 31)
	for i := range times {
		times[i] = float64(i) * 20
	}
	cdf, err := s.FinishingCDF(mapping, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "finishing-time CDF of M1, Mapping %s\n", mapping)
	for i := range cdf.Times {
		fmt.Fprintf(&b, "%.0f\t%.6f\n", cdf.Times[i], cdf.Probs[i])
	}
	return b.String()
}

func TestGoldenFig3(t *testing.T) {
	checkGolden(t, "fig3_cdf_mappingA.txt", cdfTable(t, robustness.MappingA))
}

func TestGoldenFig4(t *testing.T) {
	checkGolden(t, "fig4_cdf_mappingB.txt", cdfTable(t, robustness.MappingB))
}

func TestGoldenValidationMatrix(t *testing.T) {
	fw := core.New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	entries, err := fw.ValidationMatrix(hub.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "matrix.txt", core.FormatMatrix(entries))
}

func TestGoldenImageDigests(t *testing.T) {
	// The container digests are the strongest determinism statement: any
	// change to recipes, base images, the package universe, the tar
	// encoder, or the digest scheme shows up here.
	fw := core.New()
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tool := range core.ExtendedTools() {
		res, err := fw.Build(tool, host)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", tool, res.Digest)
	}
	checkGolden(t, "digests.txt", b.String())
}

func TestGoldenActivityDiagram(t *testing.T) {
	s := robustness.NewStudy()
	txt, err := s.ActivityText(robustness.MappingA, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2_activity_m3.txt", txt)
}

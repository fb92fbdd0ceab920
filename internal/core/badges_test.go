package core

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/hub"
	"repro/internal/obs"
)

func TestAssessBadgesAllEarned(t *testing.T) {
	f := New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	report, err := f.AssessBadges(hub.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(report.Results))
	}
	earned := report.Earned()
	if len(earned) != 5 {
		t.Errorf("earned %d badges, want all 5:\n%s", len(earned), report)
	}
	out := report.String()
	for _, want := range []string{
		"Functional", "Reusable", "Available", "Replicated", "Reproduced",
		"byte-identical to native",
		"user-supplied model",
		"digest verified",
		"reproduces the build host's results",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Every earned line carries its evidence.
	if strings.Count(out, "[✓]") != 5 {
		t.Errorf("report marks:\n%s", out)
	}
}

// TestAssessBadgesValidatesOncePerTool: one validation per tool on the
// build host feeds Functional, Validated and the build-host half of
// Reproduced. A call records seven core.validate spans (three on the
// build host, the user-supplied model, three on the independent host)
// and renders the report the paper pass pins in the badges golden.
func TestAssessBadgesValidatesOncePerTool(t *testing.T) {
	f := New()
	reg := obs.NewRegistry()
	f.SetObs(reg)
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	report, err := f.AssessBadges(hub.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	validations := 0
	for _, sp := range reg.Snapshot().Spans {
		if strings.HasPrefix(sp.Name, "core.validate:") {
			validations++
		}
	}
	if validations != 7 {
		t.Errorf("AssessBadges recorded %d core.validate spans, want 7", validations)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "goldens", "badges.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The badges experiment frames the report with a title line above it
	// and the earned count below it.
	lines := strings.SplitAfter(goldentest.NormalizeEOL(string(golden)), "\n")
	if want := strings.Join(lines[1:len(lines)-2], ""); report.String() != want {
		t.Errorf("badge report drifted from the badges golden.\n--- got ---\n%s\n--- want ---\n%s", report, want)
	}
}

func TestBadgeReportRendersFailures(t *testing.T) {
	r := &BadgeReport{Results: []BadgeResult{
		{Badge: BadgeFunctional, Earned: true, Evidence: []string{"ok"}},
		{Badge: BadgeAvailable, Earned: false, Evidence: []string{"pull failed"}},
	}}
	out := r.String()
	if !strings.Contains(out, "[✓] Artifacts Evaluated — Functional") {
		t.Errorf("out:\n%s", out)
	}
	if !strings.Contains(out, "[✗] Artifacts Available") {
		t.Errorf("out:\n%s", out)
	}
	if len(r.Earned()) != 1 {
		t.Errorf("earned = %v", r.Earned())
	}
}

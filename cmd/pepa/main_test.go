package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pepa/derive"
)

// runCmd invokes run() with the given argv, capturing stdout.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	os.Args = append([]string{"pepa"}, args...)
	runErr := run()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func modelFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.pepa")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const model = "r = 1.0;\nP = (work, r).P1;\nP1 = (rest, 2).P;\nP\n"

func TestSteadyStateOutput(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"derived 2 states", "steady-state distribution", "throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCDFMode(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model), "-cdf", "P1", "-tmax", "5", "-n", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "passage-time CDF") || !strings.Contains(out, "median") {
		t.Errorf("output:\n%s", out)
	}
}

func TestDotAndTextModes(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model), "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph activity") {
		t.Errorf("dot output:\n%s", out)
	}
	out, err = runCmd(t, modelFile(t, model), "-text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "activities:") {
		t.Errorf("text output:\n%s", out)
	}
}

func TestSimMode(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model), "-sim", "500", "-reps", "2", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simulated 2 replication(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSweepMode(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model), "-sweep", "r:0.5:2:4", "-measure", "throughput:work")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "r\tthroughput(work)") {
		t.Errorf("output:\n%s", out)
	}
	if _, err := runCmd(t, modelFile(t, model), "-sweep", "bad", "-measure", "throughput:work"); err == nil {
		t.Error("bad sweep spec accepted")
	}
	if _, err := runCmd(t, modelFile(t, model), "-sweep", "r:1:2:4", "-measure", "nope:x"); err == nil {
		t.Error("bad measure accepted")
	}
}

// TestSweepRejectsNonReratable: -sweep on a model whose rates cannot be
// re-valued without re-deriving (a both-active cooperation) exits with
// the sweep's error instead of printing a table.
func TestSweepRejectsNonReratable(t *testing.T) {
	src := "r = 2;\nP = (a, r).P;\nQ = (a, 3).Q;\nP <a> Q\n"
	out, err := runCmd(t, modelFile(t, src), "-sweep", "r:1:2:3", "-measure", "throughput:a")
	if !errors.Is(err, derive.ErrNotReratable) {
		t.Fatalf("err = %v, want ErrNotReratable", err)
	}
	if strings.Contains(out, "throughput(a)") {
		t.Errorf("sweep table printed despite the error:\n%s", out)
	}
}

func TestCheckMode(t *testing.T) {
	out, err := runCmd(t, modelFile(t, model), "-check", `S>=0.3["P1"]; T>=0.3[work]`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "= true") != 2 {
		t.Errorf("output:\n%s", out)
	}
	if _, err := runCmd(t, modelFile(t, model), "-check", `S>=0.9["P1"]`); err == nil {
		t.Error("failing property did not set exit error")
	}
}

func TestExportFlags(t *testing.T) {
	dir := t.TempDir()
	gen := filepath.Join(dir, "gen.mtx")
	lts := filepath.Join(dir, "lts.csv")
	if _, err := runCmd(t, modelFile(t, model), "-export-generator", gen, "-export-lts", lts); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{gen, lts} {
		data, err := os.ReadFile(f)
		if err != nil || len(data) == 0 {
			t.Errorf("export file %s missing or empty", f)
		}
	}
}

func TestAggregateFlag(t *testing.T) {
	src := "C = (up, 1).D; D = (down, 2).C;\nC || C || C || C\n"
	out, err := runCmd(t, modelFile(t, src), "-aggregate")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "derived 5 states") {
		t.Errorf("aggregation did not lump (want 5 states):\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("no arguments accepted")
	}
	if _, err := runCmd(t, filepath.Join(t.TempDir(), "missing.pepa")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := runCmd(t, modelFile(t, "P = ;")); err == nil {
		t.Error("bad model accepted")
	}
	if _, err := runCmd(t, modelFile(t, model), "-cdf", "Nowhere"); err == nil {
		t.Error("unmatched pattern accepted")
	}
}

func TestDeadlockedModelSkipsSteadyState(t *testing.T) {
	src := "P = (a, 1).Q; Q = (halt, 1).Q; R = (a, T).R; (P <a,halt> R)\n"
	// Q offers halt, R never does: absorbing after one step.
	out, err := runCmd(t, modelFile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "absorbing state") {
		t.Errorf("output:\n%s", out)
	}
}

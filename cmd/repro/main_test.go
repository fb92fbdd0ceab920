package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() {
		os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("repro", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	os.Args = append([]string{"repro"}, args...)
	runErr := run()
	w.Close()
	var out strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	r.Close()
	return out.String(), runErr
}

// TestSingleExperiments: -only runs the named experiment alone, under
// its banner. The root TestGoldenPaperPass pins every output's bytes.
func TestSingleExperiments(t *testing.T) {
	for _, name := range []string{"table1", "badges"} {
		out, err := runCmd(t, "-only", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Count(out, "==== ") != 1 || !strings.HasPrefix(out, "==== "+name+" — ") {
			t.Errorf("-only %s did not run exactly that experiment:\n%s", name, out)
		}
	}
}

// TestOnlyRejectsUnknownName: a misspelt -only fails naming the valid
// experiments, before the run builds anything.
func TestOnlyRejectsUnknownName(t *testing.T) {
	out, err := runCmd(t, "-only", "fig7")
	if err == nil {
		t.Fatalf("-only fig7 succeeded:\n%s", out)
	}
	for _, want := range []string{`"fig7"`, "table1", "badges", "chaos"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if out != "" {
		t.Errorf("a rejected run printed:\n%s", out)
	}
}

func TestOutdirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCmd(t, "-only", "table1", "-outdir", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "a5,a9,a12,a17,a20") {
		t.Errorf("table1.txt content:\n%s", data)
	}
}

func TestFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	out, err := runCmd(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, banner := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "matrix", "motivation", "security", "futurework", "badges"} {
		if !strings.Contains(out, "==== "+banner) {
			t.Errorf("experiment %s missing from full run", banner)
		}
	}
}

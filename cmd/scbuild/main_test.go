package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/image"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() {
		os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("scbuild", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	os.Args = append([]string{"scbuild"}, args...)
	runErr := run()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestBuildCannedTool(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pepa.scif")
	stdout, err := runCmd(t, "-tool", "pepa", "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "digest: sha256:") {
		t.Errorf("output:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil || len(data) == 0 {
		t.Fatalf("image file missing: %v", err)
	}
}

// TestBuildWritesLayeredImageThatScrunRuns: the written file is the
// layered SCIF2 encoding, and the scrun command runs it.
func TestBuildWritesLayeredImageThatScrunRuns(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "pepa.scif")
	stdout, err := runCmd(t, "-tool", "pepa", "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !image.IsLayered(data) {
		t.Fatalf("scbuild wrote %.5q, want the SCIF2 magic", data)
	}
	img, _, err := image.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("layers: %d\n", len(img.Layers)); len(img.Layers) == 0 || !strings.Contains(stdout, want) {
		t.Errorf("image carries %d layers; output:\n%s", len(img.Layers), stdout)
	}
	models := filepath.Join(dir, "models")
	if err := os.MkdirAll(models, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(models, "m.pepa"), []byte(core.SimplePEPAModel), 0o644); err != nil {
		t.Fatal(err)
	}
	run := exec.Command(goBin, "run", "repro/cmd/scrun", "-image", out, "-bind", models+":/data", "--", "/data/m.pepa")
	got, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("scrun: %v\n%s", err, got)
	}
	if !strings.Contains(string(got), "steady-state distribution") {
		t.Errorf("scrun output:\n%s", got)
	}
}

func TestBuildFromRecipeFile(t *testing.T) {
	recipePath := filepath.Join(t.TempDir(), "r.def")
	os.WriteFile(recipePath, []byte("Bootstrap: library\nFrom: centos:7.4\n%runscript\n  echo hi\n"), 0o644)
	out := filepath.Join(t.TempDir(), "img.scif")
	stdout, err := runCmd(t, "-recipe", recipePath, "-name", "demo", "-o", out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "built demo:latest") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestListHosts(t *testing.T) {
	stdout, err := runCmd(t, "-list-hosts")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "centos-7.4-proliant") || !strings.Contains(stdout, "gcp-n1-standard-8") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("neither -recipe nor -tool rejected")
	}
	if _, err := runCmd(t, "-tool", "pepa", "-host", "amiga"); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := runCmd(t, "-recipe", filepath.Join(t.TempDir(), "none.def")); err == nil {
		t.Error("missing recipe file accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/hub"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	os.Args = append([]string{"schub"}, args...)
	runErr := run()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

// startHub starts a real hub server (with auto-build) on an ephemeral port.
func startHub(t *testing.T) string {
	t.Helper()
	srv := hub.NewServer(hub.NewStore())
	builder, err := core.New().NewHubBuilder()
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableAutoBuild(builder)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + addr
}

func buildImageFile(t *testing.T) string {
	t.Helper()
	fw := core.New()
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	res, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.Image.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pepa.scif")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPushListPull(t *testing.T) {
	hubURL := startHub(t)
	img := buildImageFile(t)
	out, err := runCmd(t, "push", "-hub", hubURL, "-collection", "cc", "-image", img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digest: sha256:") {
		t.Errorf("push output:\n%s", out)
	}
	out, err = runCmd(t, "list", "-hub", hubURL, "-collection", "cc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pepa:latest") {
		t.Errorf("list output:\n%s", out)
	}
	target := filepath.Join(t.TempDir(), "pulled.scif")
	out, err = runCmd(t, "pull", "-hub", hubURL, "-collection", "cc", "-name", "pepa", "-o", target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pulled pepa:latest") {
		t.Errorf("pull output:\n%s", out)
	}
	if _, err := os.Stat(target); err != nil {
		t.Errorf("pulled file missing: %v", err)
	}
}

func TestRemoteBuildSubcommand(t *testing.T) {
	hubURL := startHub(t)
	recipePath := filepath.Join(t.TempDir(), "r.def")
	os.WriteFile(recipePath, []byte("Bootstrap: library\nFrom: centos:7.4\n%runscript\n  echo built-by-hub\n"), 0o644)
	out, err := runCmd(t, "build", "-hub", hubURL, "-collection", "cc", "-name", "demo", "-tag", "v1", "-recipe", recipePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hub built demo:v1") {
		t.Errorf("build output:\n%s", out)
	}
	// The built image is pullable.
	target := filepath.Join(t.TempDir(), "demo.scif")
	if _, err := runCmd(t, "pull", "-hub", hubURL, "-collection", "cc", "-name", "demo", "-tag", "v1", "-o", target); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("no subcommand accepted")
	}
	if _, err := runCmd(t, "frobnicate"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := runCmd(t, "push"); err == nil {
		t.Error("push without -image accepted")
	}
	if _, err := runCmd(t, "pull"); err == nil {
		t.Error("pull without -name accepted")
	}
	if _, err := runCmd(t, "build", "-name", "x"); err == nil {
		t.Error("build without -recipe accepted")
	}
	hubURL := startHub(t)
	if _, err := runCmd(t, "list", "-hub", hubURL, "-collection", "ghost"); err == nil {
		t.Error("list of missing collection accepted")
	}
}

// TestPushIsLayeredAndPullWritesStoredBytes: push always negotiates by
// layer, so re-pushing the same image moves no layer; pull writes exactly
// the bytes the hub stores.
func TestPushIsLayeredAndPullWritesStoredBytes(t *testing.T) {
	store := hub.NewStore()
	srv := hub.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hubURL := "http://" + addr
	img := buildImageFile(t)

	out, err := runCmd(t, "push", "-hub", hubURL, "-collection", "cc", "-image", img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "layers transferred: 1 of 1") {
		t.Errorf("first push output:\n%s", out)
	}
	out, err = runCmd(t, "push", "-hub", hubURL, "-collection", "cc", "-image", img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "layers transferred: 0 of 1") {
		t.Errorf("second push output:\n%s", out)
	}

	target := filepath.Join(t.TempDir(), "pulled.scif")
	if _, err := runCmd(t, "pull", "-hub", hubURL, "-collection", "cc", "-name", "pepa", "-o", target); err != nil {
		t.Fatal(err)
	}
	pulled, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, ok := store.Get("cc", "pepa", "latest")
	if !ok {
		t.Fatal("pushed image not stored")
	}
	if string(pulled) != string(stored) {
		t.Errorf("pulled file (%d bytes) differs from the stored blob (%d bytes)", len(pulled), len(stored))
	}
}

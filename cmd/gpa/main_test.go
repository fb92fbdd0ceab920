package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	os.Args = append([]string{"gpa"}, args...)
	runErr := run()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

const gpModel = `
rr = 2.0;
rt = 0.27;
rs = 4.0;
rb = 1.0;
Client = (request, rr).Client_think;
Client_think = (think, rt).Client;
Server = (request, rs).Server_log;
Server_log = (log, rb).Server;
Clients{Client[50]} <request> Servers{Server[5]}
`

func modelFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.gpepa")
	if err := os.WriteFile(path, []byte(gpModel), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFluidAnalysis(t *testing.T) {
	out, err := runCmd(t, modelFile(t), "-analysis", "fluid", "-horizon", "20", "-n", "10")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GPEPA model: 2 groups", "Clients:Client", "action throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimAnalysis(t *testing.T) {
	out, err := runCmd(t, modelFile(t), "-analysis", "sim", "-horizon", "5", "-n", "5", "-reps", "2", "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stochastic simulation") {
		t.Errorf("output:\n%s", out)
	}
}

// TestSweepHonorsTimeout: -timeout reaches the sweep's points. At a
// horizon of 1e7 each point integrates for seconds until its step budget
// fails it, so a sweep that ignored the deadline would report that budget
// error instead.
func TestSweepHonorsTimeout(t *testing.T) {
	_, err := runCmd(t, modelFile(t), "-analysis", "sweep",
		"-sweep-group", "Servers", "-sweep-component", "Server",
		"-sweep-counts", "2,5", "-horizon", "1e7", "-sweep-action", "request", "-timeout", "100ms")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the sweep canceled by its deadline", err)
	}
}

func TestSweepAnalysis(t *testing.T) {
	out, err := runCmd(t, modelFile(t), "-analysis", "sweep",
		"-sweep-group", "Servers", "-sweep-component", "Server",
		"-sweep-counts", "2,5,20,40", "-horizon", "300", "-sweep-action", "request")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "count\tthroughput(request)") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "saturation at count") {
		t.Errorf("saturation missing:\n%s", out)
	}
	if _, err := runCmd(t, modelFile(t), "-analysis", "sweep"); err == nil {
		t.Error("sweep without flags accepted")
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Error("no args accepted")
	}
	if _, err := runCmd(t, modelFile(t), "-analysis", "wat"); err == nil {
		t.Error("unknown analysis accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.gpepa")
	os.WriteFile(bad, []byte("not a model"), 0o644)
	if _, err := runCmd(t, bad); err == nil {
		t.Error("bad model accepted")
	}
}

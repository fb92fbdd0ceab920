package hub

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowGate wraps the server handler so one request can be held in
// flight at a known point — the deterministic stand-in for a slow pull
// caught by a shutdown.
type slowGate struct {
	inner   http.Handler
	entered chan struct{} // closed-over signal: a request reached the gate
	release chan struct{} // the request proceeds when this closes
}

func (g *slowGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.entered <- struct{}{}
	<-g.release
	g.inner.ServeHTTP(w, r)
}

// TestShutdownDrainsSlowInflightPull pins the graceful path: a layer
// pull held in flight when Shutdown starts still completes with its full
// payload, and the shutdown is recorded as drained.
func TestShutdownDrainsSlowInflightPull(t *testing.T) {
	store := NewStore()
	if _, err := store.Put("c", "pepa", "latest", mustBlob(t, testImage("pepa", "latest", "solver"))); err != nil {
		t.Fatal(err)
	}
	digest, blob := onlyLayer(t, store, "c", "pepa", "latest")
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	gate := &slowGate{inner: srv.handler, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv.handler = gate
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type pullResult struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan pullResult, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/_layers/" + digest)
		if err != nil {
			got <- pullResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			got <- pullResult{err: err}
			return
		}
		got <- pullResult{status: resp.StatusCode, body: body}
	}()
	<-gate.entered // the pull is now in flight, parked at the gate

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the parked request. Give it a moment to
	// close the listener, then verify new connections are refused while
	// the old one survives.
	time.Sleep(20 * time.Millisecond)
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("new request accepted after Shutdown began")
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight pull finished", err)
	default:
	}
	close(gate.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-got
	if res.err != nil {
		t.Fatalf("in-flight pull failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight pull status = %d", res.status)
	}
	if string(res.body) != string(blob) {
		t.Error("in-flight pull returned a truncated or corrupt layer")
	}
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "drained")); n != 1 {
		t.Errorf("drained shutdowns = %v, want 1", n)
	}
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "aborted")); n != 0 {
		t.Errorf("aborted shutdowns = %v, want 0", n)
	}
}

// TestShutdownAbortsAfterDeadline pins the abortive fallback: a request
// that outlives the drain deadline is cut, Shutdown reports the
// context's error, and the outcome counts as aborted.
func TestShutdownAbortsAfterDeadline(t *testing.T) {
	srv := NewServer(NewStore())
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	gate := &slowGate{inner: srv.handler, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv.handler = gate
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		_, err := http.Get("http://" + addr + "/healthz")
		reqDone <- err
	}()
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown drained despite a stuck request")
	}
	if ctx.Err() == nil {
		t.Fatalf("Shutdown returned %v before the drain deadline", err)
	}
	close(gate.release) // unblock the handler goroutine
	<-reqDone
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "aborted")); n != 1 {
		t.Errorf("aborted shutdowns = %v, want 1", n)
	}
}

// TestShutdownWithoutListen is a no-op, matching Close.
func TestShutdownWithoutListen(t *testing.T) {
	srv := NewServer(NewStore())
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown on unstarted server: %v", err)
	}
}

// TestSaveSurvivesTornWriteArtifacts pins the fsatomic migration: a
// stale tmp file from an interrupted earlier snapshot neither corrupts a
// later one nor leaks into the reopened store, and the index on disk is
// never observable half-written (the tmp is renamed into place).
func TestSaveSurvivesTornWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	// Simulate the debris of a crash mid-save: a torn index tmp and a
	// torn blob tmp, as the pre-fsync scheme could leave behind.
	if err := os.WriteFile(filepath.Join(dir, indexFile+".tmp-123"), []byte(`[{"collection":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.scif.tmp-9"), []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("c", "pepa", "latest", mustBlob(t, testImage("pepa", "latest", "solver"))); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open after a snapshot over torn artifacts: %v", err)
	}
	defer back.Close()
	if _, _, ok := back.Get("c", "pepa", "latest"); !ok {
		t.Fatal("image lost")
	}
	// A fresh snapshot leaves no tmp files of its own behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") && e.Name() != indexFile+".tmp-123" && e.Name() != "deadbeef.scif.tmp-9" {
			t.Errorf("snapshot leaked tmp file %s", e.Name())
		}
	}
}

// TestLoadRejectsTornIndex pins recovery semantics: a torn (truncated)
// index — possible only under the old non-durable write path — fails
// the open loudly instead of silently serving a partial catalogue.
func TestLoadRejectsTornIndex(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Put("c", "pepa", "latest", mustBlob(t, testImage("pepa", "latest", "solver"))); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{}); err == nil || !strings.Contains(err.Error(), "corrupt index") {
		t.Fatalf("open of torn index = %v, want corrupt-index error", err)
	}
	// Compacting from the live store repairs the directory.
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	back, _, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	back.Close()
}

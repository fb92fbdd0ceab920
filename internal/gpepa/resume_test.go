package gpepa

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/runctx"
)

// truncateRepCheckpoint keeps only the replications with index < keep in
// the checkpoint at path — the on-disk state of a run killed after `keep`
// completions (fsatomic keeps the file one consistent snapshot).
func truncateRepCheckpoint(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var payload map[string]map[string]json.RawMessage
	if err := json.Unmarshal(env["payload"], &payload); err != nil {
		t.Fatal(err)
	}
	reps := payload["reps"]
	if len(reps) <= keep {
		t.Fatalf("checkpoint holds %d replications, cannot truncate to %d", len(reps), keep)
	}
	for key := range reps {
		i, err := strconv.Atoi(key)
		if err != nil {
			t.Fatalf("non-integer replication key %q", key)
		}
		if i >= keep {
			delete(reps, key)
		}
	}
	env["payload"], err = json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMeanOfSimulationsResumeByteIdentical: resuming an ensemble mean
// from a partial checkpoint must reproduce the uninterrupted result
// bit-for-bit, recomputing only the missing replications.
func TestMeanOfSimulationsResumeByteIdentical(t *testing.T) {
	fs := compileClientServer(t)
	const horizon, n, k, seed = 5.0, 20, 8, 3

	want, err := fs.MeanOfSimulations(horizon, n, k, seed)
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "gpepa.json")
	if _, err := fs.MeanOfSimulationsCtx(context.Background(), horizon, n, k, seed, ckPath); err != nil {
		t.Fatal(err)
	}
	truncateRepCheckpoint(t, ckPath, 3)

	fs2 := compileClientServer(t)
	reg := obs.NewRegistry()
	fs2.Obs = reg
	got, err := fs2.MeanOfSimulationsCtx(context.Background(), horizon, n, k, seed, ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Counter("checkpoint_writes_total", obs.L("job", "gpepa.ensemble")); w != k-3 {
		t.Errorf("resume wrote %g replications, want %d (the first 3 must come from the checkpoint)", w, k-3)
	}
	if got.Jumps != want.Jumps {
		t.Fatalf("resumed Jumps = %d, want %d", got.Jumps, want.Jumps)
	}
	for i := range want.X {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("time grid differs at index %d", i)
		}
		for j := range want.X[i] {
			if got.X[i][j] != want.X[i][j] {
				t.Fatalf("resumed mean differs at t=%g var %d: %v != %v (must be byte-identical)",
					want.Times[i], j, got.X[i][j], want.X[i][j])
			}
		}
	}
}

// TestEnsembleOfSimulationsCanceledClassified: cancellation surfaces as a
// classified *runctx.ErrCanceled counting the checkpointed replications.
func TestEnsembleOfSimulationsCanceledClassified(t *testing.T) {
	fs := compileClientServer(t)
	const horizon, n, k, seed = 5.0, 20, 8, 3
	ckPath := filepath.Join(t.TempDir(), "gpepa.json")
	if _, err := fs.EnsembleOfSimulationsCtx(context.Background(), horizon, n, k, seed, ckPath); err != nil {
		t.Fatal(err)
	}
	truncateRepCheckpoint(t, ckPath, 2)

	reg := obs.NewRegistry()
	fs.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fs.EnsembleOfSimulationsCtx(ctx, horizon, n, k, seed, ckPath)
	if err == nil {
		t.Fatal("canceled ensemble returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error is not *runctx.ErrCanceled: %v", err)
	}
	if ec.Done != 2 || ec.Total != k || ec.Unit != "replications" {
		t.Fatalf("partial report = %d/%d %s, want 2/%d replications", ec.Done, ec.Total, ec.Unit, k)
	}
	if got := reg.Counter("cancellations_total", obs.L("op", "gpepa.ensemble"), obs.L("cause", "canceled")); got != 1 {
		t.Errorf("cancellations_total{op=gpepa.ensemble} = %g, want 1", got)
	}
}

// TestMeanOfSimulationsResumesParentFixture: testdata/partial_checkpoint.json
// was written by an earlier release after three of eight replications
// (1, 4 and 6). Both reductions resume it, compute only the other five,
// match their uninterrupted results bit for bit, and leave the checkpoint
// file that release left after the same resume.
func TestMeanOfSimulationsResumesParentFixture(t *testing.T) {
	fs := compileClientServer(t)
	const horizon, n, k, seed = 5.0, 20, 8, 3
	wantMean, err := fs.MeanOfSimulations(horizon, n, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	wantEns, err := fs.EnsembleOfSimulations(horizon, n, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(want string, reduce func(fs *FluidSystem, ckPath string) (string, error)) {
		t.Helper()
		data, err := os.ReadFile("testdata/partial_checkpoint.json")
		if err != nil {
			t.Fatal(err)
		}
		ckPath := filepath.Join(t.TempDir(), "partial_checkpoint.json")
		if err := os.WriteFile(ckPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := compileClientServer(t)
		reg := obs.NewRegistry()
		fs.Obs = reg
		got, err := reduce(fs, ckPath)
		if err != nil {
			t.Fatal(err)
		}
		if w := reg.Counter("checkpoint_writes_total", obs.L("job", "gpepa.ensemble")); w != 5 {
			t.Errorf("resume wrote %g replications, want 5", w)
		}
		if got != want {
			t.Errorf("resumed digest %s, want %s (must be byte-identical)", got, want)
		}
		if data, err = os.ReadFile(ckPath); err != nil {
			t.Fatal(err)
		}
		goldentest.Check(t, "testdata/goldens/resumed_checkpoint.json", string(data))
	}
	ctx := context.Background()
	resume(digestGrid(wantMean.Jumps, wantMean.Times, wantMean.X), func(fs *FluidSystem, ckPath string) (string, error) {
		r, err := fs.MeanOfSimulationsCtx(ctx, horizon, n, k, seed, ckPath)
		if err != nil {
			return "", err
		}
		return digestGrid(r.Jumps, r.Times, r.X), nil
	})
	resume(digestGrid(wantEns.Jumps, wantEns.Times, wantEns.Mean, wantEns.Std), func(fs *FluidSystem, ckPath string) (string, error) {
		r, err := fs.EnsembleOfSimulationsCtx(ctx, horizon, n, k, seed, ckPath)
		if err != nil {
			return "", err
		}
		return digestGrid(r.Jumps, r.Times, r.Mean, r.Std), nil
	})
}

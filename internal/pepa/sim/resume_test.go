package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/runctx"
)

// truncateCheckpoint rewrites the checkpoint at path keeping only the
// replications with index < keep — the on-disk state a run killed after
// `keep` completions would leave (fsatomic guarantees the file is always
// one consistent snapshot, never a torn prefix). The surgery goes through
// generic JSON so it cannot silently drift from the envelope schema.
func truncateCheckpoint(t *testing.T, path string, keep int) {
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

// TestEnsembleResumeByteIdentical: an ensemble resumed from a checkpoint
// holding only the first few replications must reproduce the
// uninterrupted ensemble bit-for-bit, recomputing only the missing
// replications.
func TestEnsembleResumeByteIdentical(t *testing.T) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	const n = 12
	opt := Options{Horizon: 50, Seed: 11}

	want, err := RunEnsemble(m, opt, n)
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "ensemble.json")
	ckOpt := opt
	ckOpt.Checkpoint = ckPath
	if _, err := RunEnsemble(m, ckOpt, n); err != nil {
		t.Fatal(err)
	}
	truncateCheckpoint(t, ckPath, 4)

	reg := obs.NewRegistry()
	resOpt := ckOpt
	resOpt.Obs = reg
	got, err := RunEnsemble(m, resOpt, n)
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Counter("checkpoint_writes_total", obs.L("job", "sim.ensemble")); w != n-4 {
		t.Errorf("resume wrote %g replications, want %d (the first 4 must come from the checkpoint)", w, n-4)
	}
	if got.Replications != want.Replications || got.Deadlocks != want.Deadlocks || got.MeanEvents != want.MeanEvents {
		t.Fatalf("resumed ensemble differs: %+v vs %+v", got, want)
	}
	for a, v := range want.MeanThroughput {
		if got.MeanThroughput[a] != v {
			t.Errorf("MeanThroughput[%s] = %v, want %v (must be byte-identical)", a, got.MeanThroughput[a], v)
		}
		if got.ThroughputStd[a] != want.ThroughputStd[a] {
			t.Errorf("ThroughputStd[%s] = %v, want %v", a, got.ThroughputStd[a], want.ThroughputStd[a])
		}
	}
}

// TestEnsembleCanceledClassified: a canceled ensemble reports classified
// partial progress — the replications already in the checkpoint count as
// done, and the partial ensemble reduces over exactly those.
func TestEnsembleCanceledClassified(t *testing.T) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	const n = 12
	ckPath := filepath.Join(t.TempDir(), "ensemble.json")
	opt := Options{Horizon: 50, Seed: 11, Checkpoint: ckPath}
	if _, err := RunEnsemble(m, opt, n); err != nil {
		t.Fatal(err)
	}
	truncateCheckpoint(t, ckPath, 5)

	reg := obs.NewRegistry()
	opt.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunEnsembleCtx(ctx, m, opt, n)
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
	if ec.Done != 5 || ec.Total != n || ec.Unit != "replications" {
		t.Fatalf("partial report = %d/%d %s, want 5/%d replications", ec.Done, ec.Total, ec.Unit, n)
	}
	partial, ok := ec.Partial.(*Ensemble)
	if !ok {
		t.Fatalf("ErrCanceled.Partial has type %T, want *Ensemble", ec.Partial)
	}
	if partial.Replications != 5 {
		t.Errorf("partial ensemble reduces %d replications, want 5", partial.Replications)
	}
	if got := reg.Counter("cancellations_total", obs.L("op", "sim.ensemble"), obs.L("cause", "canceled")); got != 1 {
		t.Errorf("cancellations_total{op=sim.ensemble} = %g, want 1", got)
	}
}

// TestEnsembleStaleCheckpointIgnored: a checkpoint from different
// parameters (another seed) must not leak replications into the run.
func TestEnsembleStaleCheckpointIgnored(t *testing.T) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	const n = 6
	ckPath := filepath.Join(t.TempDir(), "ensemble.json")
	if _, err := RunEnsemble(m, Options{Horizon: 50, Seed: 1, Checkpoint: ckPath}, n); err != nil {
		t.Fatal(err)
	}

	want, err := RunEnsemble(m, Options{Horizon: 50, Seed: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	got, err := RunEnsemble(m, Options{Horizon: 50, Seed: 2, Checkpoint: ckPath, Obs: reg}, n)
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Counter("checkpoint_writes_total", obs.L("job", "sim.ensemble")); w != n {
		t.Errorf("stale checkpoint: %g writes, want %d (all replications recomputed)", w, n)
	}
	for a, v := range want.MeanThroughput {
		if got.MeanThroughput[a] != v {
			t.Errorf("MeanThroughput[%s] = %v, want %v", a, got.MeanThroughput[a], v)
		}
	}
}

// copyFile copies src into a fresh temporary directory and returns the
// copy's path, so a test resumes from a committed fixture without
// rewriting it.
func copyFile(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestEnsembleResumesParentFixture: testdata/partial_checkpoint.json was
// written by an earlier release after five of twelve replications
// (0, 3, 4, 8 and 11). Resuming it computes only the other seven,
// reduces to the uninterrupted ensemble bit for bit, and leaves the
// checkpoint file that release left after the same resume.
func TestEnsembleResumesParentFixture(t *testing.T) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	const n = 12
	opt := Options{Horizon: 50, Seed: 11}
	want, err := RunEnsemble(m, opt, n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opt.Checkpoint, opt.Obs = copyFile(t, "testdata/partial_checkpoint.json"), reg
	got, err := RunEnsemble(m, opt, n)
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Counter("checkpoint_writes_total", obs.L("job", "sim.ensemble")); w != 7 {
		t.Errorf("resume wrote %g replications, want 7", w)
	}
	if got.Replications != want.Replications || got.Deadlocks != want.Deadlocks ||
		math.Float64bits(got.MeanEvents) != math.Float64bits(want.MeanEvents) {
		t.Fatalf("resumed ensemble differs: %+v vs %+v", got, want)
	}
	for a, v := range want.MeanThroughput {
		if math.Float64bits(got.MeanThroughput[a]) != math.Float64bits(v) ||
			math.Float64bits(got.ThroughputStd[a]) != math.Float64bits(want.ThroughputStd[a]) {
			t.Errorf("action %s: resumed %v ± %v, want %v ± %v", a, got.MeanThroughput[a], got.ThroughputStd[a], v, want.ThroughputStd[a])
		}
	}
	data, err := os.ReadFile(opt.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "testdata/goldens/resumed_checkpoint.json", string(data))
}

package robustness

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/runctx"
)

// TestStudyCancelCheckpointResume is the chaos drill pinned by ISSUE 5:
// cancel a study mid-flight, check the partial report is classified, then
// resume from the checkpoint and require the final output byte-identical
// to an uninterrupted run. Workers=1 serializes the machines, so the
// cancellation point (after machine 2's cell) is fully deterministic.
func TestStudyCancelCheckpointResume(t *testing.T) {
	times := grid(0, 400, 40)

	// Uninterrupted reference, no checkpoint.
	ref := NewStudy()
	ref.Workers = 1
	want, err := ref.MakespanCDF(MappingA, times)
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "study.json")

	// Interrupted run: cancel inside the test seam after the second cell
	// has been computed and checkpointed.
	reg1 := obs.NewRegistry()
	s1 := NewStudy()
	s1.Workers = 1
	s1.Checkpoint = ckPath
	s1.Obs = reg1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1.hookCell = func(mapping string, j int) {
		if j == 1 {
			cancel()
		}
	}
	_, err = s1.MakespanCDFCtx(ctx, MappingA, times)
	if err == nil {
		t.Fatal("canceled study returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error is not *runctx.ErrCanceled: %v", err)
	}
	if ec.Done != 2 || ec.Total != NumMachines || ec.Unit != "machines" {
		t.Fatalf("partial report = %d/%d %s, want 2/%d machines", ec.Done, ec.Total, ec.Unit, NumMachines)
	}
	partial, ok := ec.Partial.([]*ctmc.PassageCDF)
	if !ok {
		t.Fatalf("ErrCanceled.Partial has type %T", ec.Partial)
	}
	if partial[0] == nil || partial[1] == nil || partial[2] != nil {
		t.Fatalf("partial cells = [%v %v %v ...], want first two finished only",
			partial[0] != nil, partial[1] != nil, partial[2] != nil)
	}
	if got := reg1.Counter("cancellations_total", obs.L("op", "robustness.makespan"), obs.L("cause", "canceled")); got != 1 {
		t.Errorf("cancellations_total{op=robustness.makespan} = %g, want 1", got)
	}
	if got := reg1.Counter("checkpoint_writes_total", obs.L("job", studyJob)); got != 2 {
		t.Errorf("checkpoint_writes_total after interrupt = %g, want 2", got)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("checkpoint file missing after interrupt: %v", err)
	}

	// Resume: a fresh study with the same parameters and checkpoint path
	// recomputes only machines 3-5 and matches the reference bit-for-bit.
	reg2 := obs.NewRegistry()
	s2 := NewStudy()
	s2.Workers = 1
	s2.Checkpoint = ckPath
	s2.Obs = reg2
	got, err := s2.MakespanCDF(MappingA, times)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("checkpoint_writes_total", obs.L("job", studyJob)); got != 3 {
		t.Errorf("resume wrote %g cells, want 3 (machines 1-2 must come from the checkpoint)", got)
	}
	for i := range want.Probs {
		if got.Probs[i] != want.Probs[i] {
			t.Fatalf("resumed makespan CDF differs at t=%g: %v != %v (must be byte-identical)",
				times[i], got.Probs[i], want.Probs[i])
		}
		if got.Times[i] != want.Times[i] {
			t.Fatalf("resumed time grid differs at index %d", i)
		}
	}
}

// TestStudyCheckpointStaleParamsIgnored: a checkpoint written under other
// parameters must count as a miss, never as data.
func TestStudyCheckpointStaleParamsIgnored(t *testing.T) {
	times := grid(0, 400, 20)
	ckPath := filepath.Join(t.TempDir(), "study.json")

	s1 := NewStudy()
	s1.Workers = 1
	s1.Checkpoint = ckPath
	if _, err := s1.FinishingCDF(MappingA, 0, times); err != nil {
		t.Fatal(err)
	}

	// Same path, different availability parameters: the cell on disk is
	// stale and the study must recompute, matching a checkpoint-free run.
	s2 := NewStudy()
	s2.Workers = 1
	s2.Checkpoint = ckPath
	s2.FailRate = 1.0
	s2.RepairRate = 0.1
	got, err := s2.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewStudy()
	fresh.Workers = 1
	fresh.FailRate = 1.0
	fresh.RepairRate = 0.1
	want, err := fresh.FinishingCDF(MappingA, 0, times)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Probs {
		if got.Probs[i] != want.Probs[i] {
			t.Fatalf("stale checkpoint leaked into result at t=%g", times[i])
		}
	}
}

// TestStudyDeadlineClassifiedAsDeadline: an expired deadline must be
// classified distinctly from an explicit cancel.
func TestStudyDeadlineClassifiedAsDeadline(t *testing.T) {
	s := NewStudy()
	s.Workers = 1
	reg := obs.NewRegistry()
	s.Obs = reg
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := s.MakespanCDFCtx(ctx, MappingA, grid(0, 400, 10))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false for %v", err)
	}
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error is not *runctx.ErrCanceled: %v", err)
	}
	if ec.Done != 0 {
		t.Errorf("pre-expired deadline completed %d machines, want 0", ec.Done)
	}
	if got := reg.Counter("cancellations_total", obs.L("op", "robustness.makespan"), obs.L("cause", "deadline")); got != 1 {
		t.Errorf("cancellations_total{cause=deadline} = %g, want 1", got)
	}
}

// TestStudyResumesParentFixture: testdata/partial_checkpoint.json was
// written by an earlier release's FinishingCDF for machines 1 and 4 of
// mapping A. A makespan over the same grid resumes it, solves only
// machines 2, 3 and 5, matches the uninterrupted makespan bit for bit,
// and leaves the checkpoint file that release left after the same resume.
func TestStudyResumesParentFixture(t *testing.T) {
	times := grid(0, 400, 40)
	want, err := NewStudy().MakespanCDF(MappingA, times)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/partial_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy()
	s.Checkpoint = filepath.Join(t.TempDir(), "partial_checkpoint.json")
	if err := os.WriteFile(s.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Obs = reg
	got, err := s.MakespanCDF(MappingA, times)
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Counter("checkpoint_writes_total", obs.L("job", studyJob)); w != 3 {
		t.Errorf("resume wrote %g cells, want 3", w)
	}
	for i := range want.Probs {
		if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
			t.Fatalf("resumed makespan CDF differs at t=%g: %v != %v", times[i], got.Probs[i], want.Probs[i])
		}
	}
	if data, err = os.ReadFile(s.Checkpoint); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "testdata/goldens/resumed_checkpoint.json", string(data))
}

package robustness

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/obs"
	"repro/internal/runctx"
)

// TestStudyCancelCheckpointResume cancels a makespan mid-flight and checks
// the partial report is classified. GOMAXPROCS 1 runs the machines in
// order, so the cancellation point (after machine 2's CDF) is fully
// deterministic. The study keeps no checkpoint, so nothing resumes: a
// re-run recomputes every machine.
func TestStudyCancelCheckpointResume(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	reg := obs.NewRegistry()
	s := NewStudy()
	s.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.hookCell = func(mapping string, j int) {
		if j == 1 {
			cancel()
		}
	}
	_, err := s.MakespanCDFCtx(ctx, MappingA, grid(0, 400, 40))
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
	if partial[0] == nil || partial[1] == nil || partial[2] != nil || partial[3] != nil || partial[4] != nil {
		t.Fatalf("partial cells = %v, want machines 1-2 finished only", partial)
	}
	if got := reg.Counter("cancellations_total", obs.L("op", "robustness.makespan"), obs.L("cause", "canceled")); got != 1 {
		t.Errorf("cancellations_total{op=robustness.makespan} = %g, want 1", got)
	}
}

// TestStudyDeadlineClassifiedAsDeadline: an expired deadline must be
// classified distinctly from an explicit cancel.
func TestStudyDeadlineClassifiedAsDeadline(t *testing.T) {
	s := NewStudy()
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

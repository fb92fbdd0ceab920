package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Cancellation mid-run: tasks dispatched after ctx is done are skipped
// with their error slot set to ctx.Err(); already-dispatched tasks run
// to completion. Both the sequential and the parallel path are driven.
func TestCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		gate := make(chan struct{})
		const n = 64
		errs := run(ctx, n, workers, false, func(i int) error {
			if i == 0 {
				cancel()
				close(gate)
			} else {
				<-gate // no task outruns the cancellation in task 0
			}
			ran.Add(1)
			return nil
		})
		skipped := 0
		for i, err := range errs {
			if err == nil {
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: task %d failed with %v, want context.Canceled", workers, i, err)
			}
			skipped++
		}
		if skipped == 0 {
			t.Fatalf("workers=%d: no task was skipped after cancellation", workers)
		}
		// At most the in-flight tasks plus one select-race straggler may
		// still run; the dispatcher's pre-check stops everything after.
		if got := int(ran.Load()); got > workers+1 {
			t.Fatalf("workers=%d: %d tasks ran after cancellation, want <= %d", workers, got, workers+1)
		}
		if skipped+int(ran.Load()) != n {
			t.Fatalf("workers=%d: %d skipped + %d ran != %d", workers, skipped, ran.Load(), n)
		}
	}
}

// A never-canceled context changes nothing: all tasks run.
func TestCtxNilOrLiveRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := ForEachAll(context.Background(), 16, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d/16", ran.Load())
	}
}

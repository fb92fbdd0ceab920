package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Cancellation mid-run: tasks dispatched after ctx is done are skipped
// with their error slot set to ctx.Err(); already-dispatched tasks run
// to completion.
func TestCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		gate := make(chan struct{})
		const n = 64
		err := ForEachAll(ctx, n, workers, func(i int) error {
			if i == 0 {
				cancel()
				close(gate)
			} else {
				<-gate // no task outruns the cancellation in task 0
			}
			ran.Add(1)
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want MultiError for skipped tasks", workers)
		}
		var m *MultiError
		if !errors.As(err, &m) {
			t.Fatalf("workers=%d: error type %T", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: errors.Is(err, context.Canceled) = false: %v", workers, err)
		}
		// At most the in-flight tasks plus one select-race straggler may
		// still run; the dispatcher's pre-check stops everything after.
		if got := int(ran.Load()); got > workers+1 {
			t.Fatalf("workers=%d: %d tasks ran after cancellation, want <= %d", workers, got, workers+1)
		}
		if len(m.Errs)+int(ran.Load()) != n {
			t.Fatalf("workers=%d: %d skipped + %d ran != %d", workers, len(m.Errs), ran.Load(), n)
		}
	}
}

// A never-canceled context changes nothing: all tasks run.
func TestCtxNilOrLiveRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := ForEachAll(context.Background(), 16, 4, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d/16", ran.Load())
	}
}

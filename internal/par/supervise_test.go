package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicBecomesError is the supervision guarantee: a panicking task
// surfaces as a *PanicError carrying the panic value and a stack
// fragment, and on the parallel path every other task still runs.
func TestPanicBecomesError(t *testing.T) {
	var count atomic.Int64
	errs := run(context.Background(), 20, 4, true, func(i int) error {
		count.Add(1)
		if i == 5 {
			panic("solver exploded")
		}
		return nil
	})
	if errs[5] == nil {
		t.Fatal("panic was swallowed")
	}
	var pe *PanicError
	if !errors.As(errs[5], &pe) {
		t.Fatalf("err = %T %v, want *PanicError", errs[5], errs[5])
	}
	if pe.Index != 5 || pe.Value != "solver exploded" {
		t.Errorf("PanicError = {Index: %d, Value: %v}", pe.Index, pe.Value)
	}
	if !strings.Contains(pe.Stack, "supervise_test.go") {
		t.Errorf("stack fragment does not reach the panic site:\n%s", pe.Stack)
	}
	if count.Load() != 20 {
		t.Errorf("only %d/20 tasks ran after the panic", count.Load())
	}
}

// TestPanicDoesNotDeadlock guards the original bug: a panic in a worker
// used to kill the goroutine mid-loop and hang the dispatcher. With
// more tasks than workers and every task panicking, the pool must still
// drain and return.
func TestPanicDoesNotDeadlock(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), 100, 2, true, func(i int) error { panic(i) })[0]
	}()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 0 {
			t.Errorf("err = %v, want task 0's PanicError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool deadlocked after worker panics")
	}
}

func TestPanicSequentialPath(t *testing.T) {
	errs := run(context.Background(), 3, 1, true, func(i int) error {
		if i == 1 {
			panic(errors.New("wrapped panic value"))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(errs[1], &pe) || pe.Index != 1 {
		t.Fatalf("err = %v, want task 1's PanicError", errs[1])
	}
}

func TestForEachAllAggregatesAllFailures(t *testing.T) {
	err := ForEachAll(context.Background(), 10, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	var m *MultiError
	if !errors.As(err, &m) {
		t.Fatalf("err = %T %v, want *MultiError", err, err)
	}
	if m.Total != 10 || len(m.Errs) != 4 {
		t.Fatalf("MultiError = {Total: %d, failures: %d}, want 10 and 4", m.Total, len(m.Errs))
	}
	for i, want := range []string{"task 0", "task 3", "task 6", "task 9"} {
		if !strings.Contains(m.Errs[i].Error(), want) {
			t.Errorf("Errs[%d] = %v, want %s (index order)", i, m.Errs[i], want)
		}
	}
	if !strings.Contains(m.Error(), "4/10 tasks failed") || !strings.Contains(m.Error(), "and 1 more") {
		t.Errorf("summary = %q", m.Error())
	}
}

func TestForEachAllNilOnSuccess(t *testing.T) {
	if err := ForEachAll(context.Background(), 8, func(int) error { return nil }); err != nil {
		t.Error(err)
	}
}

// TestFailFastSequential: a sequential first-error run (ForEach's) stops
// at its first failure, while ForEachAll's attempts every task.
func TestFailFastSequential(t *testing.T) {
	var count int
	run(context.Background(), 10, 1, true, func(i int) error {
		count++
		if i == 2 {
			return errors.New("stop here")
		}
		return nil
	})
	if count != 3 {
		t.Errorf("sequential fail-fast ran %d tasks, want 3", count)
	}
	count = 0
	run(context.Background(), 10, 1, false, func(i int) error {
		count++
		return errors.New("every task fails")
	})
	if count != 10 {
		t.Errorf("sequential ForEachAll ran %d tasks, want 10", count)
	}
}

// TestMapReturnsPartialResults runs at whatever GOMAXPROCS the test
// binary has (go test -cpu 1,4 drives both paths): a parallel run
// completes every dispatched task, a sequential one stops at task 2.
func TestMapReturnsPartialResults(t *testing.T) {
	out, err := Map(context.Background(), 6, func(i int) (int, error) {
		if i == 4 {
			panic("worse")
		}
		if i == 2 {
			return -1, errors.New("no")
		}
		return i * 10, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "par: task 2: no") {
		t.Fatalf("err = %v, want task 2's failure", err)
	}
	want := []int{0, 10, 0, 30, 0, 50}
	if runtime.GOMAXPROCS(0) == 1 {
		want = []int{0, 10, 0, 0, 0, 0}
	}
	for i, v := range out {
		if v != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestErrorsIsThroughMultiError(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := ForEachAll(context.Background(), 3, func(i int) error {
		if i == 1 {
			return fmt.Errorf("wrapping: %w", sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is failed through MultiError: %v", err)
	}
}

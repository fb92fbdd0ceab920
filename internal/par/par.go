// Package par provides the bounded worker-pool primitive used to
// parallelize embarrassingly parallel work across the toolchain:
// simulation ensembles, parameter sweeps, container build fan-out, and the
// cross-platform validation matrix. Results are always assembled by index,
// so parallel execution is bit-identical to sequential execution — the
// property the reproducibility harness depends on.
//
// The pool is supervised: a panicking task is recovered in its worker and
// converted to a *PanicError carrying a stack fragment, so one bad task
// can neither crash the process nor deadlock the dispatcher. Every entry
// point takes a context: once it is done no further task is dispatched
// and each undispatched task fails with ctx.Err(), while tasks already
// running finish (they are expected to poll the same context at their own
// boundaries). ForEach and Map report the lowest-index failure; ForEachAll
// aggregates every failure into a *MultiError.
//
// Every fan-out runs on min(GOMAXPROCS, n) goroutines: a caller that
// wants fewer sets GOMAXPROCS. Results do not depend on the width.
package par

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// PanicError is a task panic converted to an error by the worker pool.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack string // trimmed stack fragment of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// MultiError aggregates the failures of one parallel run, ordered by
// task index. Errs entries wrap the task errors with their indices.
type MultiError struct {
	Total int // number of tasks in the run
	Errs  []error
}

func (e *MultiError) Error() string {
	const show = 3
	msgs := make([]string, 0, show+1)
	for i, err := range e.Errs {
		if i == show {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(e.Errs)-show))
			break
		}
		msgs = append(msgs, err.Error())
	}
	return fmt.Sprintf("par: %d/%d tasks failed: %s", len(e.Errs), e.Total, strings.Join(msgs, "; "))
}

// Unwrap exposes the per-task errors to errors.Is/As.
func (e *MultiError) Unwrap() []error { return e.Errs }

// safeCall runs one task with panic supervision.
func safeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8<<10)
			n := runtime.Stack(buf, false)
			err = &PanicError{Index: i, Value: r, Stack: trimStack(string(buf[:n]))}
		}
	}()
	return fn(i)
}

// trimStack drops the recover machinery frames (the top two call pairs:
// runtime.Stack inside safeCall's deferred closure) so the fragment
// starts at the panic site.
func trimStack(s string) string {
	lines := strings.Split(s, "\n")
	const keep = 16
	if len(lines) > keep {
		lines = append(lines[:keep], "...")
	}
	return strings.Join(lines, "\n")
}

// run executes fn over [0, n) on min(workers, n) goroutines and returns
// the per-task errors. With firstErr a sequential run stops at its first
// failure, since a caller reporting the lowest-index error can use
// nothing after it.
func run(ctx context.Context, n, workers int, firstErr bool, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = safeCall(i, fn)
			if errs[i] != nil && firstErr {
				break
			}
		}
		return errs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = safeCall(i, fn)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// Deterministic pre-check: once the context is done no further
		// task is dispatched (the select below could otherwise race a
		// ready worker against the closed done channel).
		if err := ctx.Err(); err != nil {
			for j := i; j < n; j++ {
				errs[j] = err
			}
			break
		}
		select {
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	return errs
}

// ForEach runs fn(i) for i in [0, n) on min(GOMAXPROCS, n) goroutines
// and returns the error of the lowest-index failing task, wrapped with
// its index. A parallel run completes every dispatched task, which keeps
// the choice of error deterministic; a sequential run (GOMAXPROCS 1 or
// n 1) stops at its first failure. A panicking task surfaces as that
// task's *PanicError instead of crashing the pool.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	for i, err := range run(ctx, n, runtime.GOMAXPROCS(0), true, fn) {
		if err != nil {
			return fmt.Errorf("par: task %d: %w", i, err)
		}
	}
	return nil
}

// Map runs fn over [0, n) as ForEach does and collects the results by
// index. On failure it returns ForEach's error together with the partial
// results: zero values at failed and undispatched indices.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// ForEachAll runs fn over [0, n) as ForEach does, but a sequential run
// too attempts every task, and the result is nil or a *MultiError
// listing every failure in index order.
func ForEachAll(ctx context.Context, n int, fn func(i int) error) error {
	var m *MultiError
	for i, err := range run(ctx, n, runtime.GOMAXPROCS(0), false, fn) {
		if err != nil {
			if m == nil {
				m = &MultiError{Total: n}
			}
			m.Errs = append(m.Errs, fmt.Errorf("task %d: %w", i, err))
		}
	}
	if m == nil {
		return nil
	}
	return m
}

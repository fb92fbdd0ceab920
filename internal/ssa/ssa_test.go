package ssa

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// TestReplicateRunsOnlyMissingReplications: replications the map already
// holds are returned as stored and never re-run; the rest run once each,
// on the par pool, and come back in index order.
func TestReplicateRunsOnlyMissingReplications(t *testing.T) {
	reps, err := checkpoint.Open[int, int](nil, "reps")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 4} {
		if err := reps.Put(i, -i); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	ran := map[int]int{}
	got, err := Replicate(context.Background(), "test.ensemble", 6, reps, func(i int) (int, error) {
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return 10 * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, -1, 20, 30, -4, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replication %d = %d, want %d", i, got[i], want[i])
		}
	}
	if len(ran) != 4 || ran[1] != 0 || ran[4] != 0 {
		t.Errorf("ran %v, want replications 0, 2, 3 and 5 once each", ran)
	}
}

// TestReplicateCanceled: a cancel stops dispatch, and the error counts,
// and the result lists, every replication the map holds, stored before
// the run or finished in it. GOMAXPROCS 1 runs the replications in order,
// so the cancel lands after replication 0 at any -cpu.
func TestReplicateCanceled(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	reps, err := checkpoint.Open[int, int](nil, "reps")
	if err != nil {
		t.Fatal(err)
	}
	if err := reps.Put(3, 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Replicate(ctx, "test.ensemble", 6, reps, func(i int) (int, error) {
		cancel() // replication 0 finishes; nothing after it starts
		return 10 + i, nil
	})
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *runctx.ErrCanceled wrapping context.Canceled", err)
	}
	if ec.Op != "test.ensemble" || ec.Done != 2 || ec.Total != 6 || ec.Unit != "replications" {
		t.Errorf("report = %s %d/%d %s, want test.ensemble 2/6 replications", ec.Op, ec.Done, ec.Total, ec.Unit)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 3 {
		t.Errorf("finished replications = %v, want [10 3] (replications 0 and 3)", got)
	}
}

// TestRunNonFiniteHorizon: a NaN or infinite horizon is an error before
// any reaction fires. The clock never passes such a horizon, so a model
// that cannot absorb (here one molecule flipping between two species)
// used to fire reactions until killed. Each run is on a goroutine and
// fails the test if it has not returned within 5 s.
func TestRunNonFiniteHorizon(t *testing.T) {
	rates := func(x, dst []float64) error {
		dst[0], dst[1] = x[0], x[1]
		return nil
	}
	fire := func(r int, x []float64, _ *rng.Source) {
		x[r]--
		x[1-r]++
	}
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), "test.ssa", []float64{1, 0}, h, 4, 1, 2, rates, fire)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "test.ssa: horizon") {
				t.Errorf("horizon %g: err = %v, want a horizon error naming the op", h, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("horizon %g: Run did not return within 5s", h)
		}
	}
}

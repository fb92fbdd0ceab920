package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachRunsAll(t *testing.T) {
	var count atomic.Int64
	seen := make([]atomic.Bool, 100)
	err := ForEach(context.Background(), 100, func(i int) error {
		count.Add(1)
		if seen[i].Swap(true) {
			return fmt.Errorf("index %d ran twice", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", count.Load())
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Error(err)
	}
	if err := ForEach(context.Background(), -3, func(int) error { return errors.New("must not run") }); err != nil {
		t.Error(err)
	}
}

func TestForEachSequentialPath(t *testing.T) {
	var order []int
	for _, err := range run(context.Background(), 5, 1, true, func(i int) error {
		order = append(order, i)
		return nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Errorf("sequential path out of order: %v", order)
		}
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	err := ForEach(context.Background(), 10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 3") {
		t.Errorf("err = %v, want task 3", err)
	}
}

// TestForEachAllTasksRunDespiteError: a parallel first-error run still
// completes every dispatched task.
func TestForEachAllTasksRunDespiteError(t *testing.T) {
	var count atomic.Int64
	run(context.Background(), 50, 8, true, func(i int) error {
		count.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if count.Load() != 50 {
		t.Errorf("only %d tasks ran after early failure", count.Load())
	}
}

func TestMapCollectsByIndex(t *testing.T) {
	out, err := Map(context.Background(), 20, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(context.Background(), 3, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("no")
		}
		return i, nil
	}); err == nil {
		t.Error("Map swallowed an error")
	}
}

func TestParallelEqualsSequentialProperty(t *testing.T) {
	collect := func(n, workers int) []int {
		out := make([]int, n)
		run(context.Background(), n, workers, true, func(i int) error {
			out[i] = 3*i + 1
			return nil
		})
		return out
	}
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw % 64)
		workers := int(wRaw%8) + 1
		seq, parOut := collect(n, 1), collect(n, workers)
		for i := range seq {
			if seq[i] != parOut[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

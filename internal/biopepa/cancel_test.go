package biopepa

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/runctx"
)

// cancelAfterPolls cancels its context on the after-th poll of Err, so a
// test can interrupt a run in the middle of its reactions.
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	after  int64
	polls  atomic.Int64
}

func (c *cancelAfterPolls) Err() error {
	if c.polls.Add(1) == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestMeanSSACanceledMidRun: a cancel while the replications fire their
// reactions (one enzyme replication polls about 500 times) stops the
// ensemble with a classified *runctx.ErrCanceled for the ensemble, not
// for the interrupted trajectory.
func TestMeanSSACanceledMidRun(t *testing.T) {
	const k = 8
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfterPolls{Context: parent, cancel: cancel, after: 200}
	res, err := MustParse(enzymeSrc).MeanSSACtx(ctx, 50, 25, k, 1)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("MeanSSACtx = (%v, %v), want a cancellation", res, err)
	}
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error is not *runctx.ErrCanceled: %v", err)
	}
	if ec.Op != "biopepa.mean-ssa" || ec.Unit != "replications" || ec.Total != k || ec.Done >= k {
		t.Errorf("report = %s %d/%d %s, want biopepa.mean-ssa with fewer than %d replications", ec.Op, ec.Done, ec.Total, ec.Unit, k)
	}
}

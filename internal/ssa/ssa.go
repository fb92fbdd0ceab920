// Package ssa is the replication engine of the stochastic solvers.
// Replicate fans seeded replications out over a worker pool and records
// each finished one in a checkpoint map; Run is the Gillespie
// direct-method loop of the population models (GPEPA and Bio-PEPA),
// sampled on an even time grid; Mean and Std reduce trajectories in
// replication order. A replication depends only on its seed and the
// reductions sum in a fixed order, so every result is bit-identical at
// any GOMAXPROCS and across a checkpoint resume.
package ssa

import (
	"context"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// Replicate runs replications 0..k-1 through run on the par pool
// (min(GOMAXPROCS, k) goroutines), skipping those reps already holds
// and storing each one it finishes, and returns every replication in
// index order. Once ctx is done no replication starts; the error is then
// a *runctx.ErrCanceled for op, returned with the replications reps
// holds, in index order.
func Replicate[V any](ctx context.Context, op string, k int, reps *checkpoint.Map[int, V], run func(i int) (V, error)) ([]V, error) {
	err := par.ForEach(ctx, k, func(i int) error {
		if _, done := reps.Get(i); done {
			return nil
		}
		v, err := run(i)
		if err != nil {
			return err
		}
		return reps.Put(i, v)
	})
	cerr := ctx.Err()
	if err != nil && cerr == nil {
		return nil, err
	}
	out := make([]V, 0, k)
	for i := 0; i < k; i++ {
		if v, done := reps.Get(i); done {
			out = append(out, v)
		}
	}
	if err != nil {
		return out, runctx.New(op, cerr, len(out), k, "replications")
	}
	return out, nil
}

// Path is one trajectory sampled on the grid Grid returns: X[i] is the
// state at the i-th sample time. Its JSON form is the replication record
// of an ensemble checkpoint.
type Path struct {
	X     [][]float64 `json:"x"`
	Jumps int         `json:"jumps"` // reactions fired
}

// Grid returns the n+1 sample times i·(horizon/n), i = 0..n.
func Grid(horizon float64, n int) []float64 {
	times := make([]float64, n+1)
	dt := horizon / float64(n)
	for i := range times {
		times[i] = float64(i) * dt
	}
	return times
}

// Run simulates one trajectory from x0 (left unmodified) to the horizon
// by the direct method and samples it at the n+1 times of Grid. rates
// writes the rate of each of the model's reactions at state x into dst
// (a reaction that cannot fire gets rate 0); fire applies reaction r to
// x, drawing any further choice from src. The state is sampled after
// each holding time is drawn and before the reaction fires, so a sample
// time inside a holding interval records the state held over it. ctx is
// polled once per reaction; a canceled run returns a *runctx.ErrCanceled
// for op counting the reactions fired. A NaN or infinite horizon is an
// error: the clock would never pass it.
func Run(ctx context.Context, op string, x0 []float64, horizon float64, n int, seed uint64, reactions int,
	rates func(x, dst []float64) error, fire func(r int, x []float64, src *rng.Source)) (Path, error) {
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return Path{}, fmt.Errorf("%s: horizon must be finite, got %g", op, horizon)
	}
	src := rng.New(seed)
	x := append([]float64(nil), x0...)
	p := Path{X: make([][]float64, n+1)}
	p.X[0] = append([]float64(nil), x...)
	next := 1
	dt := horizon / float64(n)
	t := 0.0
	r := make([]float64, reactions)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return Path{}, runctx.New(op, cerr, p.Jumps, 0, "reactions")
		}
		if err := rates(x, r); err != nil {
			return Path{}, err
		}
		var total float64
		for _, v := range r {
			total += v
		}
		if total <= 0 {
			break // absorbed
		}
		t += src.Exp(total)
		for ; next <= n && float64(next)*dt < t; next++ {
			p.X[next] = append([]float64(nil), x...)
		}
		if t >= horizon {
			break
		}
		fire(src.Choose(r), x, src)
		p.Jumps++
	}
	for ; next <= n; next++ {
		p.X[next] = append([]float64(nil), x...)
	}
	return p, nil
}

// Mean returns the pointwise mean of the paths, summed in slice order,
// and their total jump count.
func Mean(paths []Path) (mean [][]float64, jumps int) {
	mean = zeros(paths[0])
	for _, p := range paths {
		for i, row := range p.X {
			for j, v := range row {
				mean[i][j] += v
			}
		}
		jumps += p.Jumps
	}
	k := float64(len(paths))
	for _, row := range mean {
		for j := range row {
			row[j] /= k
		}
	}
	return mean, jumps
}

// Std returns the pointwise sample standard deviation of the paths about
// mean, as Mean returns it, from sums of squares taken in slice order.
// Cancellation slack and overflowed sums (NaN) clamp the variance to 0.
func Std(paths []Path, mean [][]float64) [][]float64 {
	std := zeros(paths[0])
	for _, p := range paths {
		for i, row := range p.X {
			for j, v := range row {
				std[i][j] += v * v
			}
		}
	}
	k := float64(len(paths))
	for i, row := range std {
		for j, sq := range row {
			m := mean[i][j]
			v := (sq - k*m*m) / (k - 1)
			if v < 0 || math.IsNaN(v) {
				v = 0
			}
			row[j] = math.Sqrt(v)
		}
	}
	return std
}

// zeros returns a zero grid shaped like p's samples.
func zeros(p Path) [][]float64 {
	out := make([][]float64, len(p.X))
	for i := range out {
		out[i] = make([]float64, len(p.X[i]))
	}
	return out
}

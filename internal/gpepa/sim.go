package gpepa

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/ssa"
)

// SimResult is a stochastic trajectory of the population CTMC underlying a
// GPEPA model, sampled on an even grid by the Gillespie direct method.
type SimResult struct {
	System *FluidSystem
	Times  []float64
	X      [][]float64 // population counts at each grid point
	Jumps  int         // total reactions fired
}

// Simulate runs one exact stochastic trajectory of the grouped population
// CTMC to the horizon, recording state on n+1 evenly spaced sample points.
// The jump process is the exact GPEPA semantics: shared actions fire at
// the min-coupled tree rate and move one component in every synchronizing
// group; independent actions move one component in one group.
func (fs *FluidSystem) Simulate(horizon float64, n int, seed uint64) (*SimResult, error) {
	return fs.SimulateCtx(context.Background(), horizon, n, seed)
}

// SimulateCtx is Simulate with cooperative cancellation: ctx is polled
// once per reaction (each reaction evaluates every action's tree rate,
// so the poll is noise). An uncancelled context leaves the jump
// sequence bit-identical to Simulate.
func (fs *FluidSystem) SimulateCtx(ctx context.Context, horizon float64, n int, seed uint64) (*SimResult, error) {
	p, err := fs.simulate(ctx, horizon, n, seed)
	if err != nil {
		return nil, err
	}
	return &SimResult{System: fs, Times: ssa.Grid(horizon, n), X: p.X, Jumps: p.Jumps}, nil
}

// simulate runs one trajectory by ssa.Run: the reactions are the
// system's actions at their min-coupled tree rates.
func (fs *FluidSystem) simulate(ctx context.Context, horizon float64, n int, seed uint64) (ssa.Path, error) {
	if horizon <= 0 || n < 1 {
		return ssa.Path{}, fmt.Errorf("gpepa: bad simulation parameters horizon=%g n=%d", horizon, n)
	}
	rates := func(x, dst []float64) error {
		for a := range fs.Actions {
			dst[a] = fs.root.rate(a, x)
		}
		return nil
	}
	// Room for the largest choice a leaf makes, owned by this trajectory.
	var most int
	for _, leaf := range fs.leaves {
		for _, ks := range leaf.byAction {
			most = max(most, len(ks))
		}
	}
	weights := make([]float64, most)
	fire := func(a int, x []float64, src *rng.Source) { fs.root.fire(a, x, src, weights) }
	p, err := ssa.Run(ctx, "gpepa.sim", fs.X0, horizon, n, seed, len(fs.Actions), rates, fire)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			runctx.Record(fs.Obs, "gpepa.sim", cerr)
		}
		return ssa.Path{}, err
	}
	fs.Obs.Inc("gpepa_sim_runs_total")
	fs.Obs.Add("gpepa_sim_jumps_total", float64(p.Jumps))
	return p, nil
}

// fire applies one occurrence of action a to the population vector,
// choosing participating components by the semantics' probabilities:
// synchronizing subtrees each fire one component; interleaving subtrees
// are chosen proportionally to their apparent rates; a leaf picks a local
// transition proportionally to x_from·rate, its weights written into
// weights, which must hold the leaf's a-transitions.
func (n *fluidNode) fire(a int, x []float64, src *rng.Source, weights []float64) {
	if n.left == nil {
		ks := n.byAction[a]
		w := weights[:len(ks)]
		var anyPositive bool
		for i, k := range ks {
			tr := &n.trans[k]
			w[i] = x[tr.from] * tr.rate
			anyPositive = anyPositive || w[i] > 0
		}
		if !anyPositive {
			return
		}
		tr := &n.trans[ks[src.Choose(w)]]
		x[tr.from]--
		x[tr.to]++
		return
	}
	if n.sync[a] {
		n.left.fire(a, x, src, weights)
		n.right.fire(a, x, src, weights)
		return
	}
	l := n.left.rate(a, x)
	rr := n.right.rate(a, x)
	if l+rr <= 0 {
		return
	}
	if src.Choose([]float64{l, rr}) == 0 {
		n.left.fire(a, x, src, weights)
	} else {
		n.right.fire(a, x, src, weights)
	}
}

// simulateReps runs k replications with independent derived seeds
// through ssa.Replicate, skipping any already present in the checkpoint
// at ckPath (empty = no checkpointing) and persisting each completed
// replication crash-safely.
func (fs *FluidSystem) simulateReps(ctx context.Context, horizon float64, n, k int, seed uint64, ckPath string) ([]ssa.Path, error) {
	var file *checkpoint.File
	if ckPath != "" {
		file = &checkpoint.File{
			Path: ckPath,
			Job:  "gpepa.ensemble",
			Fingerprint: checkpoint.Fingerprint("gpepa.ensemble", fs.Model.String(),
				fmt.Sprintf("horizon=%g n=%d k=%d seed=%d", horizon, n, k, seed)),
			Obs: fs.Obs,
		}
	}
	reps, err := checkpoint.Open[int, ssa.Path](file, "reps")
	if err != nil {
		return nil, err
	}
	paths, err := ssa.Replicate(ctx, "gpepa.ensemble", k, 0, reps, func(rep int) (ssa.Path, error) {
		return fs.simulate(ctx, horizon, n, seed+uint64(rep)*0x9E3779B9)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			runctx.Record(fs.Obs, "gpepa.ensemble", cerr)
		}
		return nil, err
	}
	fs.Obs.Add("gpepa_sim_replications_total", float64(k))
	return paths, nil
}

// MeanOfSimulations averages k independent trajectories on the shared
// grid, for comparing the stochastic mean against the fluid limit.
// Replications run in parallel (the compiled system is read-only during
// simulation); the reduction runs in replication order, so the result is
// bit-identical regardless of scheduling.
func (fs *FluidSystem) MeanOfSimulations(horizon float64, n int, k int, seed uint64) (*SimResult, error) {
	return fs.MeanOfSimulationsCtx(context.Background(), horizon, n, k, seed, "")
}

// MeanOfSimulationsCtx is MeanOfSimulations with cooperative
// cancellation and optional crash-safe checkpointing: a non-empty
// ckPath persists each completed replication, and a rerun under the
// same parameters recomputes only the missing ones, yielding a
// byte-identical mean (docs/RESILIENCE.md).
func (fs *FluidSystem) MeanOfSimulationsCtx(ctx context.Context, horizon float64, n int, k int, seed uint64, ckPath string) (*SimResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("gpepa: need at least one replication")
	}
	paths, err := fs.simulateReps(ctx, horizon, n, k, seed, ckPath)
	if err != nil {
		return nil, err
	}
	mean, jumps := ssa.Mean(paths)
	return &SimResult{System: fs, Times: ssa.Grid(horizon, n), X: mean, Jumps: jumps}, nil
}

// SimEnsemble is the pointwise mean and sample standard deviation of k
// independent population trajectories on a shared grid. The standard
// deviations let callers turn the mean into a confidence band — the
// cross-solver conformance harness compares the fluid ODE solution
// against Mean ± z·Std/√k plus the O(1/√K) mean-field bias allowance.
type SimEnsemble struct {
	System       *FluidSystem
	Times        []float64
	Mean         [][]float64 // Mean[k][i]: mean count of Vars[i] at Times[k]
	Std          [][]float64 // sample standard deviation, same shape
	Replications int
	Jumps        int
}

// EnsembleOfSimulations runs k independent trajectories in parallel and
// reduces them, in replication order, to pointwise means and sample
// standard deviations. Like MeanOfSimulations the result is bit-identical
// for any worker count.
func (fs *FluidSystem) EnsembleOfSimulations(horizon float64, n, k int, seed uint64) (*SimEnsemble, error) {
	return fs.EnsembleOfSimulationsCtx(context.Background(), horizon, n, k, seed, "")
}

// EnsembleOfSimulationsCtx is EnsembleOfSimulations with cooperative
// cancellation and optional crash-safe checkpointing via ckPath (empty
// disables it); see MeanOfSimulationsCtx.
func (fs *FluidSystem) EnsembleOfSimulationsCtx(ctx context.Context, horizon float64, n, k int, seed uint64, ckPath string) (*SimEnsemble, error) {
	if k < 2 {
		return nil, fmt.Errorf("gpepa: ensemble needs at least two replications, got %d", k)
	}
	paths, err := fs.simulateReps(ctx, horizon, n, k, seed, ckPath)
	if err != nil {
		return nil, err
	}
	mean, jumps := ssa.Mean(paths)
	return &SimEnsemble{
		System:       fs,
		Times:        ssa.Grid(horizon, n),
		Mean:         mean,
		Std:          ssa.Std(paths, mean),
		Replications: k,
		Jumps:        jumps,
	}, nil
}

// Series extracts the time series of one local state from a simulation.
func (s *SimResult) Series(group, state string) ([]float64, error) {
	idx, ok := s.System.Index[LocalState{Group: group, State: state}]
	if !ok {
		return nil, fmt.Errorf("gpepa: unknown local state %s:%s", group, state)
	}
	out := make([]float64, len(s.X))
	for k, x := range s.X {
		out[k] = x[idx]
	}
	return out, nil
}

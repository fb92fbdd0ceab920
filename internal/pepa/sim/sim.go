// Package sim implements discrete-event (Gillespie-style) simulation of
// PEPA models directly over the structured operational semantics, without
// materializing the full state space. This is the workbench's escape hatch
// for models past the state-space-explosion boundary (§II.A of the paper):
// memory use is proportional to the states *visited*, not the states that
// exist.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/ssa"
)

// Options configures a simulation run.
type Options struct {
	// Horizon is the simulated time to run for.
	Horizon float64
	// Seed fixes the random stream (bit-reproducible trajectories).
	Seed uint64
	// MaxEvents bounds the event count (default 10 million).
	MaxEvents int
	// Obs, when non-nil, receives trajectory metrics (runs, events fired,
	// deadlocks, replication counts). The registry is safe for the
	// concurrent replication workers; nil costs nothing and simulation
	// results are identical either way.
	Obs *obs.Registry
	// Checkpoint, when non-empty, is the path of a crash-safe checkpoint
	// file where RunEnsemble persists each completed replication's
	// summary. A rerun with identical parameters resumes from it — the
	// independent per-replication seeds make replication order
	// irrelevant — and produces a byte-identical ensemble (see
	// docs/RESILIENCE.md). A checkpoint from different parameters is
	// detected by fingerprint and ignored.
	Checkpoint string
}

// Result summarizes one trajectory.
type Result struct {
	// Events is the number of activities fired.
	Events int
	// Time is the simulated time actually covered (== Horizon unless the
	// model deadlocked earlier).
	Time float64
	// Deadlocked reports whether an absorbing state was reached.
	Deadlocked bool
	// FinalState is the canonical term of the last state.
	FinalState string
	// ActionCounts is the number of firings per action type.
	ActionCounts map[string]int
	// StateTime maps visited canonical states to total sojourn time.
	// Only populated when Options tracking is on (always, here): the
	// number of entries equals the number of *distinct* states visited.
	StateTime map[string]float64
}

// Throughput estimates the long-run rate of an action from the trajectory.
func (r *Result) Throughput(action string) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.ActionCounts[action]) / r.Time
}

// Occupancy estimates the long-run probability of states satisfying the
// predicate.
func (r *Result) Occupancy(pred func(term string) bool) float64 {
	if r.Time <= 0 {
		return 0
	}
	var t float64
	for term, dt := range r.StateTime {
		if pred(term) {
			t += dt
		}
	}
	return t / r.Time
}

// DistinctStates returns the number of distinct states visited.
func (r *Result) DistinctStates() int { return len(r.StateTime) }

// Run simulates one trajectory of the model's system equation.
func Run(m *pepa.Model, opt Options) (*Result, error) {
	return RunCtx(context.Background(), m, opt)
}

// RunCtx is Run with cooperative cancellation: ctx is polled once per
// event (each event derives the current state's transition fan-out, so
// the poll is noise). An interrupted trajectory returns the partial
// *Result covering the simulated time reached, together with a
// *runctx.ErrCanceled wrapping it.
func RunCtx(ctx context.Context, m *pepa.Model, opt Options) (*Result, error) {
	res, err := run(ctx, m, opt)
	if res != nil {
		opt.Obs.Inc("sim_runs_total")
		opt.Obs.Add("sim_events_total", float64(res.Events))
		if res.Deadlocked {
			opt.Obs.Inc("sim_deadlocks_total")
		}
	}
	return res, err
}

func run(ctx context.Context, m *pepa.Model, opt Options) (*Result, error) {
	if m.System == nil {
		return nil, fmt.Errorf("sim: model has no system equation")
	}
	if err := checkHorizon(opt.Horizon); err != nil {
		return nil, err
	}
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = 10_000_000
	}
	w, err := derive.NewWalker(m, derive.Options{})
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)
	res := &Result{ActionCounts: map[string]int{}, StateTime: map[string]float64{}}

	cur := 0 // the system equation
	t := 0.0
	var weights []float64
	for {
		if cerr := ctx.Err(); cerr != nil {
			res.Time = t
			res.FinalState = w.State(cur)
			runctx.Record(opt.Obs, "sim.run", cerr)
			ec := runctx.New("sim.run", cerr, res.Events, 0, "events")
			ec.Partial = res
			return res, ec
		}
		trs, err := w.Transitions(cur)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, tr := range trs {
			if tr.Rate.Passive {
				return nil, fmt.Errorf("sim: state %s offers action %q at an unresolved passive rate", w.State(cur), tr.Action)
			}
			total += tr.Rate.Value
		}
		key := w.State(cur)
		if total <= 0 {
			// Absorbing: the rest of the horizon is spent here.
			res.StateTime[key] += opt.Horizon - t
			res.Time = opt.Horizon
			res.Deadlocked = true
			res.FinalState = key
			return res, nil
		}
		dwell := r.Exp(total)
		if t+dwell >= opt.Horizon {
			res.StateTime[key] += opt.Horizon - t
			res.Time = opt.Horizon
			res.FinalState = key
			return res, nil
		}
		res.StateTime[key] += dwell
		t += dwell
		// Choose the next activity proportionally to its rate.
		weights = weights[:0]
		for _, tr := range trs {
			weights = append(weights, tr.Rate.Value)
		}
		chosen := trs[r.Choose(weights)]
		res.ActionCounts[chosen.Action]++
		res.Events++
		if cur, err = w.Target(cur, chosen); err != nil {
			return nil, err
		}
		if res.Events >= opt.MaxEvents {
			res.Time = t
			res.FinalState = w.State(cur)
			return res, fmt.Errorf("sim: event budget %d exhausted at t=%g", opt.MaxEvents, t)
		}
	}
}

// checkHorizon rejects a horizon that is not finite and positive: NaN
// passes a plain h <= 0 test, and +Inf would run until the event budget
// fails it.
func checkHorizon(h float64) error {
	if !(h > 0) || math.IsInf(h, 0) {
		return fmt.Errorf("sim: horizon must be finite and positive, got %g", h)
	}
	return nil
}

// Ensemble runs n independent replications (seeds derived from the base
// seed) and aggregates mean throughputs per action.
type Ensemble struct {
	Replications int
	// MeanThroughput per action across replications.
	MeanThroughput map[string]float64
	// ThroughputStd is the sample standard deviation of the per-replication
	// throughput of each action (zero with a single replication).
	ThroughputStd map[string]float64
	// MeanEvents is the average number of firings.
	MeanEvents float64
	// Deadlocks counts replications that reached an absorbing state.
	Deadlocks int
}

// ThroughputCI returns the mean throughput of the action and the
// half-width of its z-scaled confidence interval, mean ± z·s/√n. The
// conformance harness compares this interval against the exact CTMC
// throughput; z≈3–4 gives the safety margin documented in docs/TESTING.md.
func (e *Ensemble) ThroughputCI(action string, z float64) (mean, halfWidth float64) {
	mean = e.MeanThroughput[action]
	if e.Replications > 1 {
		halfWidth = z * e.ThroughputStd[action] / math.Sqrt(float64(e.Replications))
	}
	return mean, halfWidth
}

// repRecord is what the reduction keeps of a replication, and so what
// the ensemble checkpoint stores of it. Every field round-trips JSON
// exactly (ints, bool, shortest-decimal float64), so a resumed reduction
// is bit-identical to an uninterrupted one.
type repRecord struct {
	ActionCounts map[string]int `json:"actions"`
	Events       int            `json:"events"`
	Time         float64        `json:"time"`
	Deadlocked   bool           `json:"deadlocked"`
}

// ReplicationSeed is the seed of replication i of an ensemble with base
// seed seed. Replications use it in RunEnsemble, and a caller re-running
// one replication on its own must use it too.
func ReplicationSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// RunEnsemble simulates n replications in parallel, on min(GOMAXPROCS, n)
// goroutines. Each replication derives its own seed and compiles its own
// derive.Walker, so workers share nothing; the reduction runs in
// replication order, so the ensemble is bit-identical at any GOMAXPROCS.
func RunEnsemble(m *pepa.Model, opt Options, n int) (*Ensemble, error) {
	return RunEnsembleCtx(context.Background(), m, opt, n)
}

// RunEnsembleCtx is RunEnsemble with cooperative cancellation and
// optional crash-safe checkpointing (Options.Checkpoint). Cancellation
// stops dispatching new replications and interrupts running ones at
// their next event; the returned *runctx.ErrCanceled carries the
// ensemble reduced over the replications completed so far. With a
// checkpoint, completed replications are persisted as they finish and
// a rerun under the same parameters recomputes only the missing ones.
func RunEnsembleCtx(ctx context.Context, m *pepa.Model, opt Options, n int) (*Ensemble, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: need at least one replication")
	}
	if err := checkHorizon(opt.Horizon); err != nil {
		return nil, err
	}
	var file *checkpoint.File
	if opt.Checkpoint != "" {
		file = &checkpoint.File{
			Path: opt.Checkpoint,
			Job:  "sim.ensemble",
			Fingerprint: checkpoint.Fingerprint("sim.ensemble", m.String(),
				fmt.Sprintf("horizon=%g seed=%d maxevents=%d n=%d", opt.Horizon, opt.Seed, opt.MaxEvents, n)),
			Obs: opt.Obs,
		}
	}
	reps, err := checkpoint.Open[int, repRecord](file, "reps")
	if err != nil {
		return nil, err
	}
	records, err := ssa.Replicate(ctx, "sim.ensemble", n, reps, func(i int) (repRecord, error) {
		o := opt
		o.Seed = ReplicationSeed(opt.Seed, i)
		res, err := RunCtx(ctx, m, o)
		if err != nil {
			return repRecord{}, fmt.Errorf("sim: replication %d: %w", i, err)
		}
		return repRecord{ActionCounts: res.ActionCounts, Events: res.Events, Time: res.Time, Deadlocked: res.Deadlocked}, nil
	})
	var ec *runctx.ErrCanceled
	if errors.As(err, &ec) {
		runctx.Record(opt.Obs, "sim.ensemble", ec.Cause)
		if len(records) > 0 {
			ec.Partial = reduceEnsemble(records)
		}
		return nil, ec
	}
	if err != nil {
		return nil, err
	}
	opt.Obs.Add("sim_replications_total", float64(n))
	return reduceEnsemble(records), nil
}

// reduceEnsemble folds the records of the completed replications, in
// ascending replication order, into the Ensemble aggregate.
func reduceEnsemble(reps []repRecord) *Ensemble {
	ens := &Ensemble{
		Replications:   len(reps),
		MeanThroughput: map[string]float64{},
		ThroughputStd:  map[string]float64{},
	}
	sumSq := map[string]float64{}
	for _, res := range reps {
		for a, c := range res.ActionCounts {
			x := float64(c) / res.Time
			ens.MeanThroughput[a] += x
			sumSq[a] += x * x
		}
		ens.MeanEvents += float64(res.Events)
		if res.Deadlocked {
			ens.Deadlocks++
		}
	}
	k := ens.Replications
	if k == 0 {
		return ens
	}
	for a := range ens.MeanThroughput {
		ens.MeanThroughput[a] /= float64(k)
	}
	if k > 1 {
		for a, mean := range ens.MeanThroughput {
			// Sample variance from the sum of squares; clamp the tiny
			// negative values cancellation can produce. NaN (overflowed
			// sums) clamps too — both comparisons are false for NaN.
			v := (sumSq[a] - float64(k)*mean*mean) / float64(k-1)
			if v < 0 || math.IsNaN(v) {
				v = 0
			}
			ens.ThroughputStd[a] = math.Sqrt(v)
		}
	}
	ens.MeanEvents /= float64(k)
	return ens
}

// Actions lists the actions observed by an ensemble, sorted.
func (e *Ensemble) Actions() []string {
	out := make([]string, 0, len(e.MeanThroughput))
	for a := range e.MeanThroughput {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

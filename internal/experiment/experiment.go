// Package experiment implements the PEPA workbench's "experimentation"
// facility: sweep a rate constant (or a component population) over a range
// of values and record a steady-state measure — throughput of an action,
// utilization of a state predicate, or a passage-time quantile — at each
// point. This is how the sensitivity analyses in the PEPA literature
// (including the robustness study the paper replicates) are produced.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/numeric/linalg"
	"repro/internal/par"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/runctx"
)

// Point is one sweep sample.
type Point struct {
	Value   float64 // the swept parameter's value
	Measure float64 // the recorded measure
}

// Series is a named sweep result.
type Series struct {
	Parameter string
	Measure   string
	Points    []Point
}

// TSV renders the series as a two-column table.
func (s *Series) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\t%s\n", s.Parameter, s.Measure)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g\t%.6f\n", p.Value, p.Measure)
	}
	return b.String()
}

// Measure is the scalar a rate sweep records at each point: Throughput,
// Utilization or PassageQuantile.
type Measure interface {
	Name() string
	// sweep checks the measure against the swept model's chain family
	// once, before any point is solved, and returns the solver of its
	// points.
	sweep(fam *ctmc.ChainFamily) (runSolver, error)
}

// runSolver solves one contiguous run of sweep points: rates[k] holds
// point k's rate constants in the family's RateNames order, and out[k]
// receives its measure. It returns how many points finished. When it
// fails other than by cancellation, the points before the failing one
// finished, so the count is the failing point's index. A runSolver is
// called from one goroutine per run, so whatever it allocates serves
// only its own run.
type runSolver func(ctx context.Context, rates [][]float64, out []float64) (int, error)

// Throughput measures the steady-state rate of an action.
type Throughput struct{ Action string }

// Name implements Measure.
func (t Throughput) Name() string { return "throughput(" + t.Action + ")" }

// sweep implements Measure: the throughput is π·rates over the action's
// per-state rates, as Chain.Throughput computes it.
func (t Throughput) sweep(fam *ctmc.ChainFamily) (runSolver, error) {
	ss := fam.StateSpace()
	if !slices.Contains(ss.ActionTypes, t.Action) {
		return nil, fmt.Errorf("experiment: unknown action type %q", t.Action)
	}
	return func(ctx context.Context, rates [][]float64, out []float64) (int, error) {
		act := make([]float64, ss.NumStates())
		return steadyRun(ctx, fam, rates, out, func(pi, rates []float64) float64 {
			fam.ActionRates(act, rates, t.Action)
			return linalg.Dot(pi, act)
		})
	}, nil
}

// Utilization measures the steady-state probability of states whose
// canonical term contains Pattern.
type Utilization struct{ Pattern string }

// Name implements Measure.
func (u Utilization) Name() string { return "utilization(" + u.Pattern + ")" }

// sweep implements Measure: the states are selected once per sweep, and
// each point sums their probabilities in state order, as
// Chain.Utilization does.
func (u Utilization) sweep(fam *ctmc.ChainFamily) (runSolver, error) {
	sel := fam.StateSpace().StatesMatching(func(term string) bool {
		return strings.Contains(term, u.Pattern)
	})
	return func(ctx context.Context, rates [][]float64, out []float64) (int, error) {
		return steadyRun(ctx, fam, rates, out, func(pi, _ []float64) float64 {
			var u float64
			for _, s := range sel {
				u += pi[s]
			}
			return u
		})
	}, nil
}

// steadyRun solves a run of points as one SteadyStates batch and records
// eval(pi, rates) at each.
func steadyRun(ctx context.Context, fam *ctmc.ChainFamily, rates [][]float64, out []float64, eval func(pi, rates []float64) float64) (int, error) {
	done := 0
	err := fam.SteadyStates(ctx, rates, ctmc.SteadyStateOptions{}, nil, func(k int, pi []float64) {
		out[k] = eval(pi, rates[k])
		done = k + 1
	})
	return done, err
}

// PassageQuantile measures a quantile of the first-passage time from the
// initial state to states containing Pattern.
type PassageQuantile struct {
	Pattern  string
	Quantile float64 // e.g. 0.5 for the median
	Horizon  float64
	Samples  int
}

// Name implements Measure.
func (p PassageQuantile) Name() string {
	return fmt.Sprintf("passage-q%.2f(%s)", p.Quantile, p.Pattern)
}

// sweep implements Measure: the targets and the time grid are set once
// per sweep, and each run is one FirstPassageCDFs batch whose visits keep,
// per point, the earliest grid time at which the CDF reaches the quantile
// (+Inf if it never does), as PassageCDF.Quantile reads it.
func (p PassageQuantile) sweep(fam *ctmc.ChainFamily) (runSolver, error) {
	ss := fam.StateSpace()
	targets := ss.StatesMatching(func(term string) bool {
		return strings.Contains(term, p.Pattern)
	})
	if len(targets) == 0 {
		return nil, fmt.Errorf("experiment: no state matches %q", p.Pattern)
	}
	if !(p.Quantile > 0 && p.Quantile <= 1) {
		return nil, fmt.Errorf("experiment: passage quantile %g is not in (0, 1]", p.Quantile)
	}
	n := p.Samples
	if n <= 0 {
		n = 100
	}
	h := p.Horizon
	if h <= 0 {
		h = 100
	}
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("experiment: passage horizon %g is not finite", h)
	}
	times := make([]float64, n+1)
	for i := range times {
		times[i] = h * float64(i) / float64(n)
	}
	p0 := make([]float64, ss.NumStates())
	p0[0] = 1 // the initial state
	solve := func(ctx context.Context, rates [][]float64, out []float64) error {
		first := make([]int, len(rates))
		for k := range first {
			first[k] = len(times)
		}
		err := fam.FirstPassageCDFs(ctx, rates, p0, targets, times, 1e-10, nil, func(k, i int, prob float64) {
			if prob >= p.Quantile && i < first[k] {
				first[k] = i
			}
		})
		for k, i := range first {
			out[k] = math.Inf(1)
			if i < len(times) {
				out[k] = times[i]
			}
		}
		return err
	}
	return func(ctx context.Context, rates [][]float64, out []float64) (int, error) {
		err := solve(ctx, rates, out)
		if err == nil {
			return len(rates), nil
		}
		if ec := (*runctx.ErrCanceled)(nil); errors.As(err, &ec) {
			return ec.Done, err
		}
		// A batch error belongs to a group of members sharing a
		// uniformization rate, not to a point: solve the points alone, in
		// order, to name the first that fails.
		for k := range rates {
			if err := solve(ctx, rates[k:k+1], out[k:k+1]); err != nil {
				return k, err
			}
		}
		return 0, err
	}, nil
}

// RateSweep evaluates a measure while a rate constant takes each value in
// values. The model is not modified. Its state space is derived once into
// a ctmc.ChainFamily, and no point builds a chain: the points are split
// into one contiguous run per worker (at most GOMAXPROCS of them), and
// each run is one batched family solve (SteadyStates or FirstPassageCDFs)
// over one workspace, every point's measure Float64bits-identical to
// evaluating it on a fresh derivation of the re-rated model. Results are
// kept in sweep order, and a failure names the lowest failing point.
//
// A model whose rates cannot be re-valued without re-deriving (rate
// arithmetic, both-active synchronization; see derive.ErrNotReratable),
// an unknown throughput action and a passage pattern that matches no
// state are rejected before any point is solved.
func RateSweep(m *pepa.Model, rateName string, values []float64, measure Measure) (*Series, error) {
	return RateSweepCtx(context.Background(), m, rateName, values, measure)
}

// RateSweepCtx is RateSweep with cooperative cancellation. Once ctx is
// done no run starts, and running solves stop at their next poll; the
// sweep then returns a *runctx.ErrCanceled counting the points that
// finished.
func RateSweepCtx(ctx context.Context, m *pepa.Model, rateName string, values []float64, measure Measure) (*Series, error) {
	if _, ok := m.Rates[rateName]; !ok {
		return nil, fmt.Errorf("experiment: model has no rate constant %q", rateName)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("experiment: empty sweep")
	}
	for _, v := range values {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("experiment: rate %q cannot sweep through %g (want a finite positive value)", rateName, v)
		}
	}
	ss, err := derive.ExploreCtx(ctx, m, derive.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	fam, err := ctmc.NewChainFamily(ss)
	if err != nil {
		return nil, fmt.Errorf("experiment: sweeping %q: %w", rateName, err)
	}
	solve, err := measure.sweep(fam)
	if err != nil {
		return nil, err
	}
	// Point i's rate constants: the model's, with the swept one at values[i].
	names := fam.RateNames()
	flat := make([]float64, len(values)*len(names))
	rates := make([][]float64, len(values))
	for i, v := range values {
		row := flat[i*len(names) : (i+1)*len(names)]
		for c, name := range names {
			row[c] = m.Rates[name]
			if name == rateName {
				row[c] = v
			}
		}
		rates[i] = row
	}
	out := make([]float64, len(values))
	runs := min(runtime.GOMAXPROCS(0), len(values))
	done, errs := make([]int, runs), make([]error, runs)
	err = par.ForEach(ctx, runs, func(r int) error {
		lo, hi := r*len(values)/runs, (r+1)*len(values)/runs
		done[r], errs[r] = solve(ctx, rates[lo:hi], out[lo:hi])
		if errs[r] != nil && ctx.Err() == nil {
			errs[r] = fmt.Errorf("experiment: %s=%g: %w", rateName, values[lo+done[r]], errs[r])
		}
		return errs[r]
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			var finished int
			for _, d := range done {
				finished += d
			}
			return nil, runctx.New("experiment.rate-sweep", cerr, finished, len(values), "points")
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return nil, err // a run that panicked
	}
	points := make([]Point, len(values))
	for i, v := range values {
		points[i] = Point{Value: v, Measure: out[i]}
	}
	return &Series{Parameter: rateName, Measure: measure.Name(), Points: points}, nil
}

// Linspace returns n evenly spaced values over [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// Geomspace returns n logarithmically spaced values over [lo, hi].
func Geomspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("experiment: Geomspace needs positive bounds")
	}
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

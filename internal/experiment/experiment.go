// Package experiment implements the PEPA workbench's "experimentation"
// facility: sweep a rate constant (or a component population) over a range
// of values and record a steady-state measure — throughput of an action,
// utilization of a state predicate, or a passage-time quantile — at each
// point. This is how the sensitivity analyses in the PEPA literature
// (including the robustness study the paper replicates) are produced.
package experiment

import (
	"fmt"
	"maps"
	"math"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/par"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
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

// Measure computes a scalar from a solved model. ss carries structure
// only — states, their numbering and canonical terms, and the transition
// graph; its transition rates are the sweep prototype's, not this
// point's. The point's rates live in chain, so Eval must read every
// rate-dependent quantity from chain.
type Measure interface {
	Name() string
	Eval(ss *derive.StateSpace, chain *ctmc.Chain) (float64, error)
}

// Throughput measures the steady-state rate of an action.
type Throughput struct{ Action string }

// Name implements Measure.
func (t Throughput) Name() string { return "throughput(" + t.Action + ")" }

// Eval implements Measure.
func (t Throughput) Eval(ss *derive.StateSpace, chain *ctmc.Chain) (float64, error) {
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		return 0, err
	}
	return chain.Throughput(pi, t.Action)
}

// Utilization measures the steady-state probability of states whose
// canonical term contains Pattern.
type Utilization struct{ Pattern string }

// Name implements Measure.
func (u Utilization) Name() string { return "utilization(" + u.Pattern + ")" }

// Eval implements Measure.
func (u Utilization) Eval(ss *derive.StateSpace, chain *ctmc.Chain) (float64, error) {
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		return 0, err
	}
	sel := ss.StatesMatching(func(term string) bool {
		return strings.Contains(term, u.Pattern)
	})
	return chain.Utilization(pi, sel), nil
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

// Eval implements Measure.
func (p PassageQuantile) Eval(ss *derive.StateSpace, chain *ctmc.Chain) (float64, error) {
	targets := ss.StatesMatching(func(term string) bool {
		return strings.Contains(term, p.Pattern)
	})
	if len(targets) == 0 {
		return 0, fmt.Errorf("experiment: no state matches %q", p.Pattern)
	}
	n := p.Samples
	if n <= 0 {
		n = 100
	}
	h := p.Horizon
	if h <= 0 {
		h = 100
	}
	times := make([]float64, n+1)
	for i := range times {
		times[i] = h * float64(i) / float64(n)
	}
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
	if err != nil {
		return 0, err
	}
	return cdf.Quantile(p.Quantile), nil
}

// RateSweep evaluates a measure while a rate constant takes each value in
// values. The model is not modified. Its state space is derived once into
// a ctmc.ChainFamily, and each point re-rates that prototype: the member
// chain is byte-identical to deriving the re-rated model from scratch
// (see ctmc.ChainFamily), at the cost of an O(nnz) gather. Points run in
// parallel (one worker per core) and are assembled in sweep order.
//
// A model whose rates cannot be re-valued without re-deriving (rate
// arithmetic, both-active synchronization; see derive.ErrNotReratable)
// is rejected before any point is solved.
func RateSweep(m *pepa.Model, rateName string, values []float64, measure Measure) (*Series, error) {
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
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	fam, err := ctmc.NewChainFamily(ss)
	if err != nil {
		return nil, fmt.Errorf("experiment: sweeping %q: %w", rateName, err)
	}
	points, err := par.Map(len(values), 0, func(i int) (Point, error) {
		v := values[i]
		env := maps.Clone(m.Rates)
		env[rateName] = v
		chain, err := fam.ChainForRates(env)
		if err != nil {
			return Point{}, fmt.Errorf("experiment: %s=%g: %w", rateName, v, err)
		}
		val, err := measure.Eval(fam.StateSpace(), chain)
		if err != nil {
			return Point{}, fmt.Errorf("experiment: %s=%g: %w", rateName, v, err)
		}
		return Point{Value: v, Measure: val}, nil
	})
	if err != nil {
		return nil, err
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

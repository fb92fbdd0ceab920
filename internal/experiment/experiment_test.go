package experiment

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

const workRest = "r = 1.0; s = 2.0;\nP = (work, r).P1;\nP1 = (rest, s).P;\nP\n"

func TestThroughputSweepMonotone(t *testing.T) {
	m := pepa.MustParse(workRest)
	series, err := RateSweep(m, "r", Linspace(0.5, 4, 8), Throughput{Action: "work"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 8 {
		t.Fatalf("points = %d", len(series.Points))
	}
	// Throughput(work) = r*s/(r+s), increasing in r.
	for i := 1; i < len(series.Points); i++ {
		if series.Points[i].Measure <= series.Points[i-1].Measure {
			t.Errorf("throughput not increasing at %g", series.Points[i].Value)
		}
	}
	// Check exact value at r=2, s=2: 2*2/4 = 1.
	for _, p := range series.Points {
		want := p.Value * 2 / (p.Value + 2)
		if math.Abs(p.Measure-want) > 1e-8 {
			t.Errorf("throughput(r=%g) = %g, want %g", p.Value, p.Measure, want)
		}
	}
}

func TestSweepDoesNotMutateModel(t *testing.T) {
	m := pepa.MustParse(workRest)
	if _, err := RateSweep(m, "r", []float64{5, 10}, Throughput{Action: "work"}); err != nil {
		t.Fatal(err)
	}
	if m.Rates["r"] != 1 {
		t.Errorf("sweep mutated the model: r = %g", m.Rates["r"])
	}
}

func TestUtilizationSweep(t *testing.T) {
	m := pepa.MustParse(workRest)
	series, err := RateSweep(m, "s", Linspace(0.5, 4, 4), Utilization{Pattern: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	// pi(P1) = r/(r+s) = 1/(1+s), decreasing in s.
	for i, p := range series.Points {
		want := 1 / (1 + p.Value)
		if math.Abs(p.Measure-want) > 1e-8 {
			t.Errorf("utilization(s=%g) = %g, want %g", p.Value, p.Measure, want)
		}
		if i > 0 && p.Measure >= series.Points[i-1].Measure {
			t.Error("utilization not decreasing in s")
		}
	}
}

func TestPassageQuantileSweep(t *testing.T) {
	src := "r = 1.0;\nP0 = (go, r).PEnd;\nPEnd = (idle, 0.000001).PEnd;\nP0\n"
	m := pepa.MustParse(src)
	series, err := RateSweep(m, "r", []float64{0.5, 1, 2}, PassageQuantile{
		Pattern: "PEnd", Quantile: 0.5, Horizon: 20, Samples: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Median of Exp(r) is ln2/r: halving with each doubling of r.
	for _, p := range series.Points {
		want := math.Ln2 / p.Value
		if math.Abs(p.Measure-want) > 0.1 {
			t.Errorf("median(r=%g) = %g, want %g", p.Value, p.Measure, want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	m := pepa.MustParse(workRest)
	if _, err := RateSweep(m, "ghost", []float64{1}, Throughput{Action: "work"}); err == nil {
		t.Error("unknown rate accepted")
	}
	if _, err := RateSweep(m, "r", nil, Throughput{Action: "work"}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RateSweep(m, "r", []float64{1}, Throughput{Action: "ghost"}); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := RateSweep(m, "r", []float64{1}, PassageQuantile{Pattern: "Nowhere"}); err == nil {
		t.Error("unmatched passage pattern accepted")
	}
}

// TestSweepRejectsNonFiniteOrNonPositiveValues: a swept value must be a
// finite positive rate, checked before any point is solved. NaN slips
// past a plain v <= 0 test.
func TestSweepRejectsNonFiniteOrNonPositiveValues(t *testing.T) {
	m := pepa.MustParse(workRest)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2} {
		var evals atomic.Int64
		_, err := RateSweep(m, "r", []float64{1, v}, countingMeasure{Throughput{Action: "work"}, &evals})
		if err == nil {
			t.Errorf("r=%g accepted", v)
		}
		if n := evals.Load(); n != 0 {
			t.Errorf("r=%g: %d points evaluated before the rejection", v, n)
		}
	}
}

// countingMeasure wraps a measure and counts its evaluations.
type countingMeasure struct {
	Measure
	evals *atomic.Int64
}

func (c countingMeasure) Eval(ss *derive.StateSpace, chain *ctmc.Chain) (float64, error) {
	c.evals.Add(1)
	return c.Measure.Eval(ss, chain)
}

// cloneWithRate copies the model with one rate constant overridden — the
// per-point re-derivation the family-backed sweep replaces.
func cloneWithRate(m *pepa.Model, name string, v float64) *pepa.Model {
	c := pepa.NewModel()
	for _, rn := range m.RateOrder {
		c.DefineRate(rn, m.Rates[rn])
	}
	c.DefineRate(name, v)
	for _, dn := range m.DefOrder {
		c.Define(dn, m.Defs[dn].Body)
	}
	c.System = m.System
	return c
}

// TestRateSweepBitIdenticalToFreshDerive pins the sweep engine's
// exactness: every point of a family-backed sweep is Float64bits-equal to
// cloning the model with the point's rate, deriving it from scratch, and
// evaluating the measure on the cold chain. It covers the paper's four
// validation models and all three measure kinds.
func TestRateSweepBitIdenticalToFreshDerive(t *testing.T) {
	models := []struct {
		name, src, rate, action, pattern string
	}{
		{"simple", core.SimplePEPAModel, "phi", "serve", "ProcDown"},
		{"badge", core.ActiveBadgeModel, "m", "move12", "P3"},
		{"altbit", core.AlternatingBitModel, "l", "recv0", "WaitAck1"},
		{"pclan4", core.PCLAN4Model, "think", "propagate", "Busy"},
	}
	// Full-mantissa values so any drift shows bitwise.
	values := []float64{0.0734985172345, 0.41213141516, 1.7234985172345, 6.1121314151617}
	for _, md := range models {
		m := pepa.MustParse(md.src)
		measures := []Measure{
			Throughput{Action: md.action},
			Utilization{Pattern: md.pattern},
			PassageQuantile{Pattern: md.pattern, Quantile: 0.5, Horizon: 40, Samples: 4000},
		}
		for _, meas := range measures {
			tag := md.name + "/" + meas.Name()
			series, err := RateSweep(m, md.rate, values, meas)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for i, v := range values {
				ss, err := derive.Explore(cloneWithRate(m, md.rate, v), derive.Options{})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := meas.Eval(ss, ctmc.FromStateSpace(ss))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got := series.Points[i].Measure
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %s=%g: measure %x (%g) vs fresh %x (%g)", tag, md.rate, v,
						math.Float64bits(got), got, math.Float64bits(want), want)
				}
			}
		}
	}
}

// bothActive synchronizes two active rates on one action: the
// cooperation's apparent rate min(r, 3) leaves the transition's rate
// provenance opaque, so the model cannot be re-rated without re-deriving.
const bothActive = "r = 2; P = (a, r).P; Q = (a, 3).Q; P <a> Q"

// TestRateSweepRejectsNonReratable: a model the family cannot re-rate
// fails at sweep construction with derive.ErrNotReratable — naming the
// offending state and activity — before any point is evaluated.
func TestRateSweepRejectsNonReratable(t *testing.T) {
	var evals atomic.Int64
	_, err := RateSweep(pepa.MustParse(bothActive), "r", []float64{1, 2, 4}, countingMeasure{Throughput{Action: "a"}, &evals})
	if !errors.Is(err, derive.ErrNotReratable) {
		t.Fatalf("err = %v, want ErrNotReratable", err)
	}
	if !strings.Contains(err.Error(), `activity "a"`) || !strings.Contains(err.Error(), "state 0") {
		t.Errorf("error does not name the opaque state and activity: %v", err)
	}
	if n := evals.Load(); n != 0 {
		t.Errorf("%d points evaluated, want 0", n)
	}
}

func TestSeriesTSV(t *testing.T) {
	s := &Series{Parameter: "r", Measure: "throughput(work)", Points: []Point{{1, 0.5}, {2, 0.75}}}
	tsv := s.TSV()
	if !strings.HasPrefix(tsv, "r\tthroughput(work)\n") {
		t.Errorf("tsv header wrong:\n%s", tsv)
	}
	if !strings.Contains(tsv, "2\t0.750000") {
		t.Errorf("tsv rows wrong:\n%s", tsv)
	}
}

func TestLinspaceGeomspace(t *testing.T) {
	lin := Linspace(0, 10, 11)
	if len(lin) != 11 || lin[0] != 0 || lin[10] != 10 || lin[5] != 5 {
		t.Errorf("linspace = %v", lin)
	}
	geo := Geomspace(1, 100, 3)
	if len(geo) != 3 || geo[0] != 1 || math.Abs(geo[1]-10) > 1e-9 || math.Abs(geo[2]-100) > 1e-9 {
		t.Errorf("geomspace = %v", geo)
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("degenerate linspace = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Geomspace with zero bound did not panic")
		}
	}()
	Geomspace(0, 1, 3)
}

func TestMeasureNames(t *testing.T) {
	if (Throughput{Action: "a"}).Name() != "throughput(a)" {
		t.Error("throughput name")
	}
	if (Utilization{Pattern: "P"}).Name() != "utilization(P)" {
		t.Error("utilization name")
	}
	if !strings.Contains((PassageQuantile{Pattern: "D", Quantile: 0.5}).Name(), "q0.50") {
		t.Error("passage name")
	}
}

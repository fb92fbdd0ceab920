package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
)

// solveStations widens core.PCLAN4Model to 2^10·2 = 2048 states and
// 16384 transitions: big enough that derivation and the passage-time
// kernels dominate, small enough for ~150 ops in a 20 s window.
const solveStations = 10

// solveCDFPoints and solveCDFStep fix the passage-time grid: 61 points
// over [0, 30].
const (
	solveCDFPoints = 61
	solveCDFStep   = 0.5
	solveEps       = 1e-10
	// solveCongested is how many stations must be waiting at once for the
	// passage target: the time until the shared medium is congested.
	solveCongested = 7
)

// pclanSource renders the PC LAN of core.PCLAN4Model with one station per
// entry of tx. A single think rate is shared by every station (the
// constant "think", which a rate sweep can vary); otherwise station i
// thinks at rate think_i.
func pclanSource(think, tx []float64) string {
	n := len(tx)
	var b strings.Builder
	b.WriteString("prop = 5.0;\n")
	if len(think) == 1 {
		fmt.Fprintf(&b, "think = %g;\n", think[0])
	}
	for i := 1; i <= n; i++ {
		if len(think) > 1 {
			fmt.Fprintf(&b, "think_%d = %g;\n", i, think[i-1])
		}
		fmt.Fprintf(&b, "tx_%d = %g;\n", i, tx[i-1])
	}
	for i := 1; i <= n; i++ {
		rate := "think"
		if len(think) > 1 {
			rate = fmt.Sprintf("think_%d", i)
		}
		fmt.Fprintf(&b, "PC%d = (think%d, %s).PC%dw; PC%dw = (tx%d, tx_%d).PC%d;\n", i, i, rate, i, i, i, i, i)
	}
	var alts, set []string
	for i := 1; i <= n; i++ {
		alts = append(alts, fmt.Sprintf("(tx%d, T).Busy", i))
		set = append(set, fmt.Sprintf("tx%d", i))
	}
	fmt.Fprintf(&b, "Medium = %s;\nBusy = (propagate, prop).Medium;\n", strings.Join(alts, " + "))
	sys := "PC1"
	for i := 2; i <= n; i++ {
		sys = fmt.Sprintf("(%s || PC%d)", sys, i)
	}
	fmt.Fprintf(&b, "%s <%s> Medium\n", sys, strings.Join(set, ","))
	return b.String()
}

// seededRates draws n rates uniformly from [lo, hi].
func seededRates(r *rng.Source, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.Float64()
	}
	return out
}

var solveWorkload = &workload{
	name:   "solve",
	why:    "one cold exact solve of a 2048-state PC LAN: parse, derive, assemble, steady state, passage CDF, export",
	warmup: 2,
	setup:  newSolve,
	layers: []layerMetric{
		{"pepa.parse_ms", "ms", selfMS("pepa.parse", "")},
		{"derive.explore_ms", "ms", selfMS("derive.explore", "")},
		{"derive.alloc_mb", "MB", selfAllocMB("derive.explore", "")},
		{"derive.states", "count", counterMean("bench_states", "", 1)},
		{"derive.transitions", "count", counterMean("bench_transitions", "", 1)},
		{"ctmc.assemble_ms", "ms", selfMS("ctmc.assemble", "")},
		{"ctmc.assemble_alloc_mb", "MB", selfAllocMB("ctmc.assemble", "")},
		{"ctmc.steady_ms", "ms", selfMS("ctmc.steady", "")},
		{"ctmc.steady_iterations", "count", counterMean("ctmc_steady_iterations_total", "", 1)},
		{"ctmc.passage_ms", "ms", selfMS("ctmc.passage", "")},
		{"ctmc.passage_alloc_mb", "MB", selfAllocMB("ctmc.passage", "")},
		{"ctmc.uniformization_terms", "count", counterMean("ctmc_uniformization_terms_total", "", 1)},
		{"sparse.kernel_computed_mb", "MB", counterMean(kernelBytesKey, "", 1e-6)},
		{"export.write_ms", "ms", selfMS("export.write", "")},
	},
}

// solveRun solves the same seeded model from cold on every op.
type solveRun struct {
	e   *env
	src string
	// first holds the first op's outputs; every later op must reproduce
	// them bit for bit.
	first *solveOut
	ref   []float64
}

// solveOut is what one solve produces.
type solveOut struct {
	values []float64 // see solveRun.values
	export [32]byte  // digest of the exported CSV and TSV
}

func newSolve(e *env) (runner, error) {
	r := rng.New(e.seed)
	think := seededRates(r, solveStations, 0.3, 0.5)
	tx := seededRates(r, solveStations, 1.6, 2.4)
	ref, err := referenceFor("solve", e.seed)
	if err != nil {
		return nil, err
	}
	return &solveRun{e: e, src: pclanSource(think, tx), ref: ref}, nil
}

func (s *solveRun) op() (string, error) {
	out, err := s.solve()
	if err != nil {
		return "solve", err
	}
	if err := s.check(out); err != nil {
		return "solve", err
	}
	return "solve", nil
}

// solve runs one analysis. Its values are throughput(propagate), the sum
// of the stations' tx throughputs, the sum of π, then the passage CDF.
func (s *solveRun) solve() (*solveOut, error) {
	tr := s.e.tr
	var reg *obs.Registry
	if s.e.traced {
		reg = obs.NewRegistry()
	}
	sp := tr.begin("pepa.parse")
	m, err := pepa.Parse(s.src)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("derive.explore")
	ss, err := derive.Explore(m, derive.Options{})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ctmc.assemble")
	chain := ctmc.FromStateSpace(ss)
	sp.end()
	chain.Obs = reg
	sp = tr.begin("ctmc.steady")
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ctmc.throughputs")
	tput := chain.Throughputs(pi)
	sp.end()
	sp = tr.begin("derive.states_matching")
	targets := ss.StatesMatching(congested)
	sp.end()
	times := make([]float64, solveCDFPoints)
	for i := range times {
		times[i] = float64(i) * solveCDFStep
	}
	sp = tr.begin("ctmc.passage")
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, solveEps)
	sp.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sp = tr.begin("export.write")
	err = export.SteadyStateCSV(&buf, ss, pi)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("export.write")
	err = export.CDFTSV(&buf, cdf)
	sp.end()
	if err != nil {
		return nil, err
	}

	var txSum, piSum float64
	for i := 1; i <= solveStations; i++ {
		txSum += tput[fmt.Sprintf("tx%d", i)]
	}
	for _, p := range pi {
		piSum += p
	}
	out := &solveOut{
		values: append([]float64{tput["propagate"], txSum, piSum}, cdf.Probs...),
		export: sha256.Sum256(buf.Bytes()),
	}
	if reg != nil {
		c := flatten(reg.Snapshot())
		c["bench_states"] = float64(ss.NumStates())
		c["bench_transitions"] = float64(ss.NumTransitions())
		c[kernelBytesKey] = kernelBytes(c["ctmc_uniformization_terms_total"], float64(chain.Q.NNZ()), float64(chain.N))
		tr.addCounters(c)
	}
	return out, nil
}

// kernelBytes is the memory traffic of streaming the CSR matrix once per
// uniformization term: an 8-byte value and an 8-byte column index per
// stored nonzero (sparse.CSR indexes with int), and per row its row
// pointer, source entry and destination entry. It is computed from
// sizes, not measured, and ignores caches.
func kernelBytes(terms, nnz, rows float64) float64 {
	return terms * (16*nnz + 24*rows)
}

// congested matches states where at least solveCongested stations wait
// for the medium at once.
func congested(term string) bool {
	waiting := 0
	for i := 1; i <= solveStations; i++ {
		if strings.Contains(term, fmt.Sprintf("PC%dw", i)) {
			waiting++
		}
	}
	return waiting >= solveCongested
}

// check verifies one solve: π is a distribution, the medium's flow
// balances (every transmission is followed by exactly one propagation),
// the passage CDF is a CDF, the op reproduces the first op exactly, and
// seeds with pinned values match them.
func (s *solveRun) check(out *solveOut) error {
	v := out.values
	if math.Abs(v[2]-1) > 1e-9 {
		return fmt.Errorf("solve: π sums to %.17g", v[2])
	}
	if relDiff(v[1], v[0]) > 1e-9 {
		return fmt.Errorf("solve: Σ throughput(tx) %.17g != throughput(propagate) %.17g", v[1], v[0])
	}
	if err := checkCDF(v[3:]); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if s.first == nil {
		s.first = out
		return checkReference("solve", v, s.ref)
	}
	if out.export != s.first.export || !identical(v, s.first.values) {
		return fmt.Errorf("solve: output differs from the first op")
	}
	return nil
}

// checkCDF verifies a passage CDF stays in [0,1] and never decreases.
func checkCDF(probs []float64) error {
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("CDF value %g at point %d outside [0,1]", p, i)
		}
		if i > 0 && p < probs[i-1] {
			return fmt.Errorf("CDF decreases at point %d: %g < %g", i, p, probs[i-1])
		}
	}
	return nil
}

func (s *solveRun) finish() error { return nil }
func (s *solveRun) close()        {}

// relDiff is |a-b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// identical reports whether two value lists are equal bit for bit.
func identical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

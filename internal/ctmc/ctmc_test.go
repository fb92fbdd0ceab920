package ctmc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

func twoState(a, b float64) *Chain {
	return NewChain(2, map[[2]int]float64{{0, 1}: a, {1, 0}: b})
}

func TestSteadyStateTwoState(t *testing.T) {
	// 0 -> 1 at rate 1, 1 -> 0 at rate 2: pi = (2/3, 1/3).
	c := twoState(1, 2)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-2.0/3) > 1e-9 || math.Abs(pi[1]-1.0/3) > 1e-9 {
		t.Errorf("pi = %v, want [2/3 1/3]", pi)
	}
}

func TestSteadyStateDenseMatchesIterative(t *testing.T) {
	c := twoState(0.7, 1.3)
	it, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	de, err := c.SteadyState(SteadyStateOptions{DenseOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range it {
		if math.Abs(it[i]-de[i]) > 1e-8 {
			t.Errorf("iterative %v vs dense %v", it, de)
		}
	}
}

func TestSteadyStateBirthDeath(t *testing.T) {
	// M/M/1/K with lambda=1, mu=2: pi_i proportional to (1/2)^i.
	k := 5
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 1
		rates[[2]int{i + 1, i}] = 2
	}
	c := NewChain(k+1, rates)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for i := 0; i <= k; i++ {
		norm += math.Pow(0.5, float64(i))
	}
	for i := 0; i <= k; i++ {
		want := math.Pow(0.5, float64(i)) / norm
		if math.Abs(pi[i]-want) > 1e-8 {
			t.Errorf("pi[%d] = %g, want %g", i, pi[i], want)
		}
	}
}

func TestSteadyStateSumsToOneProperty(t *testing.T) {
	f := func(aRaw, bRaw, cRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 10) + 0.01
		b := math.Mod(math.Abs(bRaw), 10) + 0.01
		cc := math.Mod(math.Abs(cRaw), 10) + 0.01
		// 3-state ring.
		ch := NewChain(3, map[[2]int]float64{{0, 1}: a, {1, 2}: b, {2, 0}: cc})
		pi, err := ch.SteadyState(SteadyStateOptions{})
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Verify piQ ~ 0.
		res := ch.Q.VecMul(pi)
		for _, v := range res {
			if math.Abs(v) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateLargeChainBeyondDenseLimit(t *testing.T) {
	// A 5000-state birth-death chain exceeds the dense fallback limit; the
	// iterative/power pipeline must still solve it. pi_i ~ (lambda/mu)^i.
	k := 5000
	lambda, mu := 1.0, 1.2
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = lambda
		rates[[2]int{i + 1, i}] = mu
	}
	c := NewChain(k+1, rates)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	// Compare the head of the distribution against the closed form.
	norm := (1 - rho) / (1 - math.Pow(rho, float64(k+1)))
	for i := 0; i < 10; i++ {
		want := norm * math.Pow(rho, float64(i))
		if math.Abs(pi[i]-want) > 1e-6 {
			t.Errorf("pi[%d] = %g, want %g", i, pi[i], want)
		}
	}
}

func TestTransientTwoStateClosedForm(t *testing.T) {
	// p00(t) = b/(a+b) + a/(a+b)·e^{-(a+b)t}.
	a, b := 1.0, 2.0
	c := twoState(a, b)
	for _, tm := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		p, err := c.Transient(c.PointMass(0), tm, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		want := b/(a+b) + a/(a+b)*math.Exp(-(a+b)*tm)
		if math.Abs(p[0]-want) > 1e-8 {
			t.Errorf("p00(%g) = %g, want %g", tm, p[0], want)
		}
		if math.Abs(p[0]+p[1]-1) > 1e-9 {
			t.Errorf("transient mass at t=%g: %g", tm, p[0]+p[1])
		}
	}
}

func TestTransientZeroGeneratorIsIdentity(t *testing.T) {
	c := NewChain(3, map[[2]int]float64{})
	p0 := []float64{0.2, 0.5, 0.3}
	p, err := c.Transient(p0, 5, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p0 {
		if p[i] != p0[i] {
			t.Errorf("transient of empty generator changed distribution: %v", p)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := twoState(1.5, 0.5)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Transient(c.PointMass(0), 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(p[i]-pi[i]) > 1e-9 {
			t.Errorf("transient at large t = %v, steady = %v", p, pi)
		}
	}
}

func TestFirstPassageExponential(t *testing.T) {
	// Single exponential transition: CDF(t) = 1 - e^{-lambda t}.
	lambda := 2.0
	c := NewChain(2, map[[2]int]float64{{0, 1}: lambda})
	times := []float64{0, 0.25, 0.5, 1, 2}
	cdf, err := c.FirstPassageCDF(c.PointMass(0), []int{1}, times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		want := 1 - math.Exp(-lambda*tm)
		if math.Abs(cdf.Probs[i]-want) > 1e-8 {
			t.Errorf("CDF(%g) = %g, want %g", tm, cdf.Probs[i], want)
		}
	}
}

func TestFirstPassageErlang(t *testing.T) {
	// k-stage chain of rate lambda each: passage time ~ Erlang(k, lambda).
	k, lambda := 3, 1.5
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = lambda
	}
	c := NewChain(k+1, rates)
	times := []float64{0.5, 1, 2, 4}
	cdf, err := c.FirstPassageCDF(c.PointMass(0), []int{k}, times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	erlangCDF := func(t float64) float64 {
		var s float64
		for n := 0; n < k; n++ {
			lg, _ := math.Lgamma(float64(n) + 1)
			s += math.Exp(float64(n)*math.Log(lambda*t) - lambda*t - lg)
		}
		return 1 - s
	}
	for i, tm := range times {
		want := erlangCDF(tm)
		if math.Abs(cdf.Probs[i]-want) > 1e-8 {
			t.Errorf("Erlang CDF(%g) = %g, want %g", tm, cdf.Probs[i], want)
		}
	}
}

func TestFirstPassageCDFMonotone(t *testing.T) {
	c := NewChain(4, map[[2]int]float64{
		{0, 1}: 1, {1, 0}: 0.5, {1, 2}: 2, {2, 3}: 0.7,
	})
	times := make([]float64, 41)
	for i := range times {
		times[i] = float64(i) * 0.25
	}
	cdf, err := c.FirstPassageCDF(c.PointMass(0), []int{3}, times, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cdf.Probs); i++ {
		if cdf.Probs[i] < cdf.Probs[i-1]-1e-9 {
			t.Errorf("CDF not monotone at %g: %g < %g", times[i], cdf.Probs[i], cdf.Probs[i-1])
		}
	}
	if cdf.Probs[0] != 0 {
		t.Errorf("CDF(0) = %g, want 0", cdf.Probs[0])
	}
	if last := cdf.Probs[len(cdf.Probs)-1]; last < 0.99 {
		t.Errorf("CDF at horizon = %g, expected near 1", last)
	}
}

func TestPassageQuantileAndMean(t *testing.T) {
	lambda := 1.0
	c := NewChain(2, map[[2]int]float64{{0, 1}: lambda})
	times := make([]float64, 2001)
	for i := range times {
		times[i] = float64(i) * 0.01
	}
	cdf, err := c.FirstPassageCDF(c.PointMass(0), []int{1}, times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	med := cdf.Quantile(0.5)
	if math.Abs(med-math.Ln2) > 0.02 {
		t.Errorf("median = %g, want ln2=%g", med, math.Ln2)
	}
	if m := cdf.Mean(); math.Abs(m-1) > 0.01 {
		t.Errorf("mean = %g, want 1", m)
	}
	if q := cdf.Quantile(1.1); !math.IsInf(q, 1) {
		t.Errorf("unreachable quantile = %g, want +Inf", q)
	}
}

func TestFromStateSpaceThroughputUtilization(t *testing.T) {
	m := pepa.MustParse("P = (work, 2).P1; P1 = (rest, 1).P; P")
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := FromStateSpace(ss)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// pi(P) = 1/3, pi(P1) = 2/3 (faster out of P).
	idxP := ss.Index["P"]
	idxP1 := ss.Index["P1"]
	if math.Abs(pi[idxP]-1.0/3) > 1e-9 {
		t.Errorf("pi(P) = %g, want 1/3", pi[idxP])
	}
	tput, err := c.Throughput(pi, "work")
	if err != nil {
		t.Fatal(err)
	}
	// throughput(work) = pi(P)*2 = 2/3; equals throughput(rest) in cycle.
	if math.Abs(tput-2.0/3) > 1e-9 {
		t.Errorf("throughput(work) = %g, want 2/3", tput)
	}
	rput, err := c.Throughput(pi, "rest")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tput-rput) > 1e-9 {
		t.Errorf("cycle throughputs differ: %g vs %g", tput, rput)
	}
	u := c.Utilization(pi, []int{idxP1})
	if math.Abs(u-2.0/3) > 1e-9 {
		t.Errorf("utilization = %g, want 2/3", u)
	}
	if _, err := c.Throughput(pi, "nope"); err == nil {
		t.Error("unknown action accepted")
	}
}

// TestFromStateSpaceAllocatesOnlyItsOutput pins the generator assembly's
// allocation: on a derived LAN, FromStateSpace allocates the chain it
// returns — Q's header, RowPtr, ColIdx and Val, ExitRate, the action-rate
// map and one vector per action type — and a constant handful beside it,
// however many states and transitions the space has.
func TestFromStateSpaceAllocatesOnlyItsOutput(t *testing.T) {
	m, err := pepa.Parse(digestLANModel)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Eleven today: the Chain, the Builder, Q's header and its three
	// slices, ExitRate and the map's four tables; the rest is slack for
	// the runtime's map layout. A per-row or per-entry allocation would add
	// hundreds (the space has 64 states and 272 transitions).
	const fixed = 16
	allocs := testing.AllocsPerRun(20, func() { FromStateSpace(ss) })
	if limit := float64(fixed + len(ss.ActionTypes)); allocs > limit {
		t.Fatalf("FromStateSpace allocates %v times on %d states, %d transitions and %d action types; want at most %v",
			allocs, ss.NumStates(), ss.NumTransitions(), len(ss.ActionTypes), limit)
	}
}

// TestNewChainRejectsKeysOutsideTheChain: an off-diagonal rate whose
// source or target is not one of the n states panics instead of being
// dropped; a diagonal key is ignored wherever it lies.
func TestNewChainRejectsKeysOutsideTheChain(t *testing.T) {
	for _, k := range [][2]int{{0, 3}, {3, 0}, {-1, 1}, {1, -1}, {5, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewChain(3) with a rate at %v did not panic", k)
				}
			}()
			NewChain(3, map[[2]int]float64{{0, 1}: 1, k: 2})
		}()
	}
	c := NewChain(3, map[[2]int]float64{{0, 1}: 1, {7, 7}: 2})
	if c.Q.NNZ() != 2 || c.Q.At(0, 0) != -1 || c.Q.At(0, 1) != 1 {
		t.Fatalf("diagonal key changed the generator: %+v", c.Q)
	}
}

func TestGeneratorRowsSumToZeroProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		n := 6
		rates := map[[2]int]float64{}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && next() < 0.4 {
					rates[[2]int{i, j}] = next()*5 + 0.01
				}
			}
		}
		c := NewChain(n, rates)
		for i := 0; i < n; i++ {
			var row float64
			c.Q.Row(i, func(j int, v float64) { row += v })
			if math.Abs(row) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransientSeriesMatchesPointQueries(t *testing.T) {
	c := twoState(1, 1)
	times := []float64{0, 0.5, 1, 2}
	series, err := c.TransientSeries(c.PointMass(0), times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		pt, err := c.Transient(c.PointMass(0), tm, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		for s := range pt {
			if math.Abs(series[i][s]-pt[s]) > 1e-12 {
				t.Errorf("series/point mismatch at t=%g", tm)
			}
		}
	}
}

func TestBadInputs(t *testing.T) {
	c := twoState(1, 1)
	if _, err := c.Transient([]float64{1}, 1, 1e-9); err == nil {
		t.Error("wrong-length p0 accepted")
	}
	if _, err := c.Transient(c.PointMass(0), -1, 1e-9); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := c.FirstPassageCDF(c.PointMass(0), nil, []float64{1}, 1e-9); err == nil {
		t.Error("empty target set accepted")
	}
	if _, err := c.FirstPassageCDF(c.PointMass(0), []int{9}, []float64{1}, 1e-9); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// TestWrongLengthInitialDistributionRejected: every grid walker rejects an
// initial distribution whose length is not the chain's state count, with
// the message ChainFamily.FirstPassageCDFs gives, instead of padding a
// short one with zeros or truncating a long one.
func TestWrongLengthInitialDistributionRejected(t *testing.T) {
	c := NewChain(11, benchChainRates(10))
	times := cdfGrid(4, 0.5)
	for _, n := range []int{3, 20} {
		p0 := make([]float64, n)
		p0[0] = 1
		want := fmt.Sprintf("ctmc: initial distribution length %d != 11 states", n)
		if _, err := c.FirstPassageCDF(p0, []int{10}, times, 1e-10); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("FirstPassageCDF with len(p0)=%d: err = %v, want %q", n, err, want)
		}
		if _, err := c.TransientSeries(p0, times, 1e-10); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("TransientSeries with len(p0)=%d: err = %v, want %q", n, err, want)
		}
	}
}

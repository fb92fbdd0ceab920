package ctmc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

// solveDigestPath pins the output bits of every chain solver. Regenerate
// with `go test ./internal/ctmc -run TestSolveDigests -update` only after
// an intended change to solver output.
const solveDigestPath = "testdata/goldens/solve_digests.txt"

// digestLANModel is a five-station LAN whose stations think at distinct
// rates, so its derived generator has no symmetric duplicate rows and its
// exit rates are summed in transition order, not column order.
const digestLANModel = `
	t1 = 0.41; t2 = 0.37; t3 = 0.53; t4 = 0.29; t5 = 0.47;
	tx = 2.3; prop = 4.9;
	PC1 = (think1, t1).PC1w; PC1w = (tx1, tx).PC1;
	PC2 = (think2, t2).PC2w; PC2w = (tx2, tx).PC2;
	PC3 = (think3, t3).PC3w; PC3w = (tx3, tx).PC3;
	PC4 = (think4, t4).PC4w; PC4w = (tx4, tx).PC4;
	PC5 = (think5, t5).PC5w; PC5w = (tx5, tx).PC5;
	Medium = (tx1, T).Busy + (tx2, T).Busy + (tx3, T).Busy + (tx4, T).Busy + (tx5, T).Busy;
	Busy = (propagate, prop).Medium;
	((((PC1 || PC2) || PC3) || PC4) || PC5) <tx1,tx2,tx3,tx4,tx5> Medium`

// solveCase is one chain with the inputs every solver is run on.
type solveCase struct {
	name    string
	chain   func() *Chain // a fresh chain per run
	p0      []float64
	targets []int
	times   []float64
	steady  SteadyStateOptions
}

// solveDigest is the SHA-256 of the Float64bits of a solver's output
// vectors, each length-prefixed, or of its error text when it failed.
func solveDigest(err error, vecs ...[]float64) string {
	var buf []byte
	if err != nil {
		buf = append(buf, "error: "+err.Error()...)
	}
	for _, v := range vecs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(v)))
		for _, x := range v {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// digestLines runs SteadyState, Transient (at the grid's middle and last
// points), TransientSeries and FirstPassageCDF on a fresh chain of tc and
// renders one digest line per solver. The "workers=1" field dates from
// when the solvers took a worker count; it stays so the recorded lines
// still match.
func digestLines(tc solveCase) string {
	c := tc.chain()
	var b strings.Builder
	line := func(solver, digest string) {
		fmt.Fprintf(&b, "%s workers=1 %s %s\n", tc.name, solver, digest)
	}
	pi, err := c.SteadyState(tc.steady)
	line("steady", solveDigest(err, pi))
	mid, errMid := c.Transient(tc.p0, tc.times[len(tc.times)/2], 1e-10)
	last, errLast := c.Transient(tc.p0, tc.times[len(tc.times)-1], 1e-10)
	line("transient", solveDigest(errors.Join(errMid, errLast), mid, last))
	series, err := c.TransientSeries(tc.p0, tc.times, 1e-10)
	line("series", solveDigest(err, series...))
	var probs []float64
	cdf, err := c.FirstPassageCDF(tc.p0, tc.targets, tc.times, 1e-10)
	if err == nil {
		probs = cdf.Probs
	}
	line("passage", solveDigest(err, probs))
	return b.String()
}

func solveCases(t *testing.T) []solveCase {
	t.Helper()
	pointMass := func(n int) []float64 {
		p := make([]float64, n)
		p[0] = 1
		return p
	}
	var cases []solveCase
	cases = append(cases, solveCase{
		name:    "birth-death/61",
		chain:   func() *Chain { return NewChain(61, benchChainRates(60)) },
		p0:      pointMass(61),
		targets: []int{60},
		times:   cdfGrid(12, 0.5),
	})
	uniform := make([]float64, 301)
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	cases = append(cases, solveCase{
		name:    "birth-death/301",
		chain:   func() *Chain { return NewChain(301, benchChainRates(300)) },
		p0:      uniform,
		targets: []int{0, 150},
		times:   []float64{0.05, 0.1, 0.4, 0.4, 1.3, 2, 3.7},
	})
	for seed := uint64(1); seed <= 6; seed++ {
		s := seed * 0x9e3779b97f4a7c15
		n := 2 + int(s%23)
		rates := randomRates(&s, n)
		p0 := make([]float64, n)
		var sum float64
		for i := range p0 {
			s = s*6364136223846793005 + 1442695040888963407
			p0[i] = float64(s>>11) / (1 << 53)
			sum += p0[i]
		}
		for i := range p0 {
			p0[i] /= sum
		}
		cases = append(cases, solveCase{
			name:    fmt.Sprintf("random/seed=%d/n=%d", seed, n),
			chain:   func() *Chain { return NewChain(n, rates) },
			p0:      p0,
			targets: []int{n - 1},
			times:   cdfGrid(6, 0.3),
		})
	}
	// The stiff chain with a starved sweep budget: Gauss–Seidel and power
	// iteration are rejected and the BiCGStab rung accepts.
	cases = append(cases, solveCase{
		name:    "stiff/400",
		chain:   func() *Chain { return stiffChain(400) },
		p0:      pointMass(400),
		targets: []int{399},
		times:   cdfGrid(5, 1e-5),
		steady:  SteadyStateOptions{MaxIter: 50, DenseLimit: 1},
	})

	m, err := pepa.Parse(digestLANModel)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	busy := ss.StatesMatching(func(term string) bool { return strings.Contains(term, "Busy") })
	n := ss.NumStates()
	cases = append(cases, solveCase{
		name:    fmt.Sprintf("pepa-lan/%d", n),
		chain:   func() *Chain { return FromStateSpace(ss) },
		p0:      pointMass(n),
		targets: busy,
		times:   cdfGrid(8, 0.4),
	})
	fam, err := NewChainFamily(ss)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"t1": 0.9, "t2": 0.15, "t3": 1.7, "t4": 0.6, "t5": 0.05, "tx": 3.1, "prop": 2.2}
	cases = append(cases, solveCase{
		name: fmt.Sprintf("pepa-lan-member/%d", n),
		chain: func() *Chain {
			c, err := fam.ChainForRates(env)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		p0:      pointMass(n),
		targets: busy,
		times:   []float64{0.1, 0.25, 0.7, 1.2, 2.5},
	})
	return cases
}

// TestSolveDigests is the bit-level oracle for the chain solvers: every
// case must reproduce the recorded digests.
func TestSolveDigests(t *testing.T) {
	var got strings.Builder
	for _, tc := range solveCases(t) {
		got.WriteString(digestLines(tc))
	}
	goldentest.Check(t, solveDigestPath, got.String())
}

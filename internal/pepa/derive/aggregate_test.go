package derive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pepa"
)

// replicated builds "C || C || ... || C" with n copies of a 2-state toggle.
func replicated(n int) *pepa.Model {
	var b strings.Builder
	b.WriteString("C = (up, 1).D; D = (down, 2).C;\n")
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "C"
	}
	b.WriteString(strings.Join(parts, " || "))
	return pepa.MustParse(b.String())
}

// canonical returns the aggregated initial state of a model: its system
// equation in aggregation canonical form.
func canonical(t *testing.T, m *pepa.Model) string {
	t.Helper()
	ss, err := Explore(m, Options{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	return ss.States[0]
}

func TestCanonicalizeSortsOperands(t *testing.T) {
	m := pepa.MustParse("A = (a,1).A; B = (b,1).B; B || A")
	if got := canonical(t, m); got != "A <> B" {
		t.Errorf("canonical form = %q, want %q", got, "A <> B")
	}
}

func TestCanonicalizeFlattensChains(t *testing.T) {
	// (C || D) || (B || A) canonicalizes to A <> B <> C <> D regardless of
	// grouping.
	m1 := pepa.MustParse("A=(a,1).A; B=(b,1).B; C=(c,1).C; D=(d,1).D; (C || D) || (B || A)")
	m2 := pepa.MustParse("A=(a,1).A; B=(b,1).B; C=(c,1).C; D=(d,1).D; A || (B || (C || D))")
	c1, c2 := canonical(t, m1), canonical(t, m2)
	if c1 != c2 || c1 != "A <> B <> C <> D" {
		t.Errorf("groupings canonicalize to %q and %q, want %q", c1, c2, "A <> B <> C <> D")
	}
}

func TestCanonicalizeRespectsDifferentSets(t *testing.T) {
	// P <a> (Q <b> R): inner chain has a different set and must not be
	// flattened into the outer.
	m := pepa.MustParse("P=(a,1).P; Q=(a,T).Q1; Q1=(b,1).Q; R=(b,T).R; P <a> (Q <b> R)")
	if got, want := canonical(t, m), "P <a> (Q <b> R)"; got != want {
		t.Errorf("canonical form = %q, want %q", got, want)
	}
}

func TestAggregationReducesStateCount(t *testing.T) {
	n := 8
	m := replicated(n)
	plain, err := Explore(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Explore(m, Options{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumStates() != 1<<n {
		t.Errorf("plain states = %d, want %d", plain.NumStates(), 1<<n)
	}
	if agg.NumStates() != n+1 {
		t.Errorf("aggregated states = %d, want %d", agg.NumStates(), n+1)
	}
}

func TestAggregationPreservesTotalRates(t *testing.T) {
	// The lumped chain must preserve aggregate measures: compare the total
	// steady-state throughput of "up" with and without aggregation on a
	// small instance (exact lumpability).
	m := replicated(4)
	plain, err := Explore(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Explore(m, Options{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	tpPlain := steadyThroughput(t, plain, "up")
	tpAgg := steadyThroughput(t, agg, "up")
	if math.Abs(tpPlain-tpAgg) > 1e-9 {
		t.Errorf("throughput differs: plain %g vs aggregated %g", tpPlain, tpAgg)
	}
	// Analytic check: each toggle spends 2/3 in C, firing "up" at rate 1,
	// so total = 4 * 2/3.
	if want := 4 * 2.0 / 3; math.Abs(tpAgg-want) > 1e-9 {
		t.Errorf("throughput = %g, want %g", tpAgg, want)
	}
}

// steadyThroughput is a tiny inline steady-state solve to avoid an import
// cycle with internal/ctmc in this package's tests: power iteration over
// the embedded uniformized chain.
func steadyThroughput(t *testing.T, ss *StateSpace, action string) float64 {
	t.Helper()
	n := ss.NumStates()
	// Uniformization constant.
	var q float64
	for s := 0; s < n; s++ {
		if r := ss.TotalExitRate(s); r > q {
			q = r
		}
	}
	q *= 1.1
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < 200000; iter++ {
		for i := range next {
			next[i] = 0
		}
		for s := 0; s < n; s++ {
			stay := 1 - ss.TotalExitRate(s)/q
			next[s] += pi[s] * stay
			for _, tr := range ss.Trans[s] {
				next[tr.To] += pi[s] * tr.Rate / q
			}
		}
		var delta float64
		for i := range pi {
			if d := math.Abs(next[i] - pi[i]); d > delta {
				delta = d
			}
			pi[i] = next[i]
		}
		if delta < 1e-14 {
			break
		}
	}
	var tp float64
	for s := 0; s < n; s++ {
		for _, tr := range ss.Trans[s] {
			if tr.Action == action {
				tp += pi[s] * tr.Rate
			}
		}
	}
	return tp
}

func TestAggregationWithSharedActions(t *testing.T) {
	// Two identical workers synchronizing with one dispatcher: aggregation
	// must still derive correctly (commutativity of <L>).
	src := `
W = (job, T).W1; W1 = (done, 1).W;
Disp = (job, 3).Disp;
(W <job> Disp)
`
	// The workers interleave with each other and jointly cooperate with
	// the dispatcher over "job": (W || W) <job> Disp.
	src2 := "W = (job, T).W1; W1 = (done, 1).W;\nDisp = (job, 3).Disp;\n(W || W) <job> Disp"
	m := pepa.MustParse(src2)
	agg, err := Explore(m, Options{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumStates() > plain.NumStates() {
		t.Errorf("aggregation increased states: %d vs %d", agg.NumStates(), plain.NumStates())
	}
	_ = src
}

func TestAggregationIdempotent(t *testing.T) {
	// The canonical form, read back as a system equation, is its own
	// canonical form.
	const defs = "C = (up, 1).D; D = (down, 2).C;\n"
	m := pepa.MustParse(defs + "C || (D || C)")
	c1 := canonical(t, m)
	c2 := canonical(t, pepa.MustParse(defs+c1))
	if c1 != c2 || c1 != "C <> C <> D" {
		t.Errorf("canonicalization not idempotent: %q vs %q", c1, c2)
	}
}

package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// passageRows runs FirstPassageCDFs and collects its visits into one
// probability row per member. A successful call must visit every
// (member, point) pair exactly once; the helper fails t otherwise.
func passageRows(t *testing.T, fam *ChainFamily, rates [][]float64, p0 []float64, targets []int, times []float64, eps float64, reg *obs.Registry) ([][]float64, error) {
	t.Helper()
	rows, seen := make([][]float64, len(rates)), make([][]int, len(rates))
	for k := range rows {
		rows[k], seen[k] = make([]float64, len(times)), make([]int, len(times))
	}
	err := fam.FirstPassageCDFs(context.Background(), rates, p0, targets, times, eps, reg, func(k, i int, p float64) {
		seen[k][i]++
		rows[k][i] = p
	})
	if err != nil {
		return nil, err
	}
	for k := range seen {
		for i, c := range seen[k] {
			if c != 1 {
				t.Fatalf("member %d point %d visited %d times, want once", k, i, c)
			}
		}
	}
	return rows, nil
}

// batteryFamily derives a random single-component family from r: local
// states S0..S{l-1}, each offering one to three prefixes to random
// successors (self-loops and repeated prefixes included) at constants
// k0..k{kc-1} or, now and then, a literal (Fixed) rate; plus a row D,
// entered from a random state, that leaves through one prefix at rate qa
// (its uniformized diagonal is then exactly 0 when D sets q) or through
// two, at qa and qb (the diagonal 1 - (qa/q + qb/q) usually is not).
func batteryFamily(t *testing.T, r *rng.Source) *ChainFamily {
	t.Helper()
	l, kc := 2+r.Intn(10), 2+r.Intn(6)
	m := pepa.NewModel()
	for k := 0; k < kc; k++ {
		m.DefineRate(fmt.Sprintf("k%d", k), 1)
	}
	m.DefineRate("qa", 1)
	m.DefineRate("qb", 1)
	prefix := func(action string, rate pepa.RateExpr, to string) pepa.Process {
		return &pepa.Prefix{Action: action, Rate: rate, Cont: &pepa.Const{Name: to}}
	}
	entry := r.Intn(l)
	for i := 0; i < l; i++ {
		var body pepa.Process
		for p := 1 + r.Intn(3); p > 0; p-- {
			var rate pepa.RateExpr = &pepa.RateRef{Name: fmt.Sprintf("k%d", r.Intn(kc))}
			if r.Float64() < 0.15 {
				rate = &pepa.RateLit{Value: 0.5 + r.Float64()}
			}
			pre := prefix(fmt.Sprintf("a%d", r.Intn(3)), rate, fmt.Sprintf("S%d", r.Intn(l)))
			if body == nil {
				body = pre
			} else {
				body = &pepa.Choice{Left: pre, Right: body}
			}
		}
		if i == entry {
			body = &pepa.Choice{Left: prefix("enter", &pepa.RateRef{Name: fmt.Sprintf("k%d", r.Intn(kc))}, "D"), Right: body}
		}
		m.Define(fmt.Sprintf("S%d", i), body)
	}
	var d pepa.Process = prefix("up", &pepa.RateRef{Name: "qa"}, "S0")
	if r.Intn(2) == 0 {
		d = &pepa.Choice{Left: d, Right: prefix("up2", &pepa.RateRef{Name: "qb"}, fmt.Sprintf("S%d", r.Intn(l)))}
	}
	m.Define("D", d)
	m.System = &pepa.Const{Name: "S0"}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatalf("battery model: %v", res.Err())
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fam, err := NewChainFamily(ss)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// decade draws 10^u for u uniform in [lo, hi).
func decade(r *rng.Source, lo, hi float64) float64 {
	return math.Pow(10, lo+(hi-lo)*r.Float64())
}

// TestFirstPassageCDFsBitIdenticalBattery pins the batch's exactness: over
// 209 seeded trials every member's CDF is Float64bits-identical to
// ChainForRates + FirstPassageCDF. Trials vary the structure; the member
// count (1–40, then 65, 130 and 257 in the last nine trials, so a group
// larger than memberBlock is split into blocks); whether members share q
// (one lockstep group), mix shared and distinct q (lockstep groups beside
// singletons), or draw every rate across 20 decades (mostly singletons);
// non-uniform grids with repeated points; point-mass and spread-out p0;
// target sets holding the initial mass; and eps from 1e-10 to 1e-3. The
// battery must also reach both a q-setting row whose uniformized diagonal
// is exactly 0 and one whose diagonal is not, both kinds of group, and a
// group solved in several blocks.
func TestFirstPassageCDFsBitIdenticalBattery(t *testing.T) {
	r := rng.New(20191116)
	var zeroDiag, nonzeroDiag, lockstepTrials, singletonTrials, blockTrials int
	for trial := 0; trial < 209; trial++ {
		fam := batteryFamily(t, r)
		names := fam.RateNames()
		n := fam.StateSpace().NumStates()
		mode := trial % 3
		var members int
		if trial < 200 {
			members = 1 + r.Intn(40)
		} else {
			members = []int{65, 130, 257}[(trial-200)/3]
		}
		rates := make([][]float64, members)
		for k := range rates {
			// D's rates dominate every other exit rate, so they set q:
			// shared members all take one pair, mixed members one of two
			// pairs or a random one.
			qa, qb := 1e3, 7e2
			if mode == 1 {
				switch r.Intn(3) {
				case 0:
					qa = 2e3
				case 1:
					qa, qb = decade(r, 2, 4), decade(r, 2, 4)
				}
			}
			rates[k] = make([]float64, len(names))
			for c, name := range names {
				switch {
				case mode == 2:
					rates[k][c] = decade(r, -10, 10)
				case name == "qa":
					rates[k][c] = qa
				case name == "qb":
					rates[k][c] = qb
				default:
					rates[k][c] = decade(r, -1, 1)
				}
			}
		}

		p0 := make([]float64, n)
		initial := r.Intn(n)
		if r.Intn(2) == 0 {
			p0[initial] = 1
		} else {
			for i := range p0 {
				if r.Intn(3) > 0 {
					p0[i] = r.Float64()
				}
			}
			p0[initial] += 0.5
		}
		var targets []int
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				targets = append(targets, i)
			}
		}
		if len(targets) == 0 {
			targets = []int{(initial + 1) % n}
		}
		eps := decade(r, -10, -3)

		// The per-member oracle, which also reports each member's q and
		// whether the row that sets it keeps a diagonal.
		isTarget := make([]bool, n)
		for _, s := range targets {
			isTarget[s] = true
		}
		chains := make([]*Chain, members)
		qs := map[float64]int{}
		var qmax float64
		for k, row := range rates {
			env := map[string]float64{}
			for c, name := range names {
				env[name] = row[c]
			}
			chain, err := fam.ChainForRates(env)
			if err != nil {
				t.Fatal(err)
			}
			chains[k] = chain
			q, err := chain.absorbingRate(isTarget)
			if err != nil {
				t.Fatal(err)
			}
			qs[q]++
			qmax = math.Max(qmax, q)
			if q == 0 {
				continue
			}
			p := chain.uniformized(q, isTarget)
			for i := 0; i < n; i++ {
				if isTarget[i] {
					continue
				}
				var exit float64
				chain.Q.Row(i, func(j int, v float64) {
					if j != i {
						exit += v
					}
				})
				if exit == q {
					if p.At(i, i) == 0 {
						zeroDiag++
					} else {
						nonzeroDiag++
					}
					break
				}
			}
		}
		lockstep, singleton, blocks := false, false, false
		for _, c := range qs {
			lockstep = lockstep || c > 1
			singleton = singleton || c == 1
			blocks = blocks || c > memberBlock
		}
		if lockstep {
			lockstepTrials++
		}
		if singleton {
			singletonTrials++
		}
		if blocks {
			blockTrials++
		}

		times := make([]float64, 1+r.Intn(12))
		horizon := (0.5 + 30*r.Float64()) / math.Max(qmax, 1e-300)
		for i := range times {
			switch {
			case i == 0 && r.Intn(4) == 0:
				times[i] = 0
			case i > 0 && r.Intn(4) == 0:
				times[i] = times[i-1] // repeated point
			default:
				times[i] = horizon * r.Float64()
			}
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				times[i] = times[i-1] + horizon*r.Float64()/float64(len(times))
			}
		}

		got, err := passageRows(t, fam, rates, p0, targets, times, eps, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, chain := range chains {
			want, err := chain.FirstPassageCDF(p0, targets, times, eps)
			if err != nil {
				t.Fatalf("trial %d member %d: %v", trial, k, err)
			}
			for i, v := range want.Probs {
				if math.Float64bits(got[k][i]) != math.Float64bits(v) {
					t.Fatalf("trial %d (mode %d, %d members) member %d: Probs[%d] = %x, per-member path %x",
						trial, mode, members, k, i, math.Float64bits(got[k][i]), math.Float64bits(v))
				}
			}
		}
	}
	t.Logf("battery: %d exactly-zero and %d nonzero q-row diagonals; %d trials with a lockstep group, %d with a singleton, %d with a group in several blocks",
		zeroDiag, nonzeroDiag, lockstepTrials, singletonTrials, blockTrials)
	if zeroDiag == 0 || nonzeroDiag == 0 {
		t.Errorf("battery reached %d exactly-zero and %d nonzero q-row diagonals; want both", zeroDiag, nonzeroDiag)
	}
	if lockstepTrials == 0 || singletonTrials == 0 {
		t.Errorf("battery ran %d trials with a lockstep group and %d with a singleton; want both", lockstepTrials, singletonTrials)
	}
	if blockTrials == 0 {
		t.Errorf("battery split no group into blocks of at most %d members", memberBlock)
	}
}

// ignoreVisit is a FirstPassageCDFs visitor for calls whose values a test
// does not read.
func ignoreVisit(int, int, float64) {}

// TestFirstPassageCDFsVisitsEachPointOnce: the visitor sees every (member,
// point) pair exactly once, whatever path solves the member — a lockstep
// pair, a singleton, a grid point at t = 0 and a repeated one (both
// identity steps) — and nothing when there is no member or no point.
func TestFirstPassageCDFsVisitsEachPointOnce(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]float64, fam.StateSpace().NumStates())
	p0[0] = 1
	rates := [][]float64{{1.5, 0.25}, {0.7, 3.1}, {1.5, 0.25}}
	times := []float64{0, 0.5, 0.5, 2, 2}
	rows, err := passageRows(t, fam, rates, p0, []int{1}, times, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range rows {
		if row[0] != 0 || row[1] != row[2] || row[3] != row[4] || !(row[2] < row[3]) {
			t.Errorf("member %d: CDF %v, want 0 at t=0, equal values at each repeated time, rising between", k, row)
		}
	}
	for _, tc := range []struct {
		rates [][]float64
		times []float64
	}{{nil, times}, {rates, nil}} {
		err := fam.FirstPassageCDFs(context.Background(), tc.rates, p0, []int{1}, tc.times, 1e-10, nil, func(k, i int, _ float64) {
			t.Errorf("%d members, %d points: visited (%d, %d)", len(tc.rates), len(tc.times), k, i)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFirstPassageCDFsValidation: member rates are validated as
// ChainForRates validates them, and an error names the constant and the
// member; a non-finite grid point is rejected with its index.
func TestFirstPassageCDFsValidation(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fam.RateNames(), ","); got != "r1,r2" {
		t.Fatalf("RateNames = %s, want r1,r2", got)
	}
	p0 := make([]float64, fam.StateSpace().NumStates())
	p0[0] = 1
	times := []float64{0.5, 1}
	for _, v := range []float64{math.NaN(), math.Inf(1), 0, -2} {
		err := fam.FirstPassageCDFs(context.Background(), [][]float64{{1, 1}, {1, v}}, p0, []int{1}, times, 1e-10, nil, ignoreVisit)
		if err == nil || !strings.Contains(err.Error(), "member 1") || !strings.Contains(err.Error(), `"r2"`) {
			t.Errorf("r2=%g: err = %v, want it to name member 1 and r2", v, err)
		}
	}
	if err := fam.FirstPassageCDFs(context.Background(), [][]float64{{1}}, p0, []int{1}, times, 1e-10, nil, ignoreVisit); err == nil {
		t.Error("short rate row accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		err := fam.FirstPassageCDFs(context.Background(), [][]float64{{1, 1}}, p0, []int{1}, []float64{0.5, 1, bad}, 1e-10, nil, ignoreVisit)
		if err == nil || !strings.Contains(err.Error(), "t[2]") {
			t.Errorf("grid point %g: err = %v, want it to name t[2]", bad, err)
		}
	}
	if err := fam.FirstPassageCDFs(context.Background(), [][]float64{{1, 1}}, p0, []int{1}, []float64{1, 0.5}, 1e-10, nil, ignoreVisit); err == nil {
		t.Error("descending grid accepted")
	}
	if err := fam.FirstPassageCDFs(context.Background(), [][]float64{{1, 1}}, p0, nil, times, 1e-10, nil, ignoreVisit); err == nil {
		t.Error("empty target set accepted")
	}
}

// TestNonFiniteTimesRejected: a NaN or +Inf time reached the Poisson
// weights as a NaN rate, whose window walk never ended. Every entry point
// now rejects it, the grid walkers naming the point's index.
func TestNonFiniteTimesRejected(t *testing.T) {
	c := NewChain(3, map[[2]int]float64{{0, 1}: 2, {1, 2}: 1.5, {2, 0}: 3})
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := c.Transient(c.PointMass(0), bad, 1e-10); err == nil {
			t.Errorf("Transient(t=%g) accepted", bad)
		}
		grid := []float64{0.5, 1, bad}
		if _, err := c.TransientSeries(c.PointMass(0), grid, 1e-10); err == nil || !strings.Contains(err.Error(), "t[2]") {
			t.Errorf("TransientSeries with t[2]=%g: err = %v, want it to name t[2]", bad, err)
		}
		if _, err := c.FirstPassageCDF(c.PointMass(0), []int{2}, grid, 1e-10); err == nil || !strings.Contains(err.Error(), "t[2]") {
			t.Errorf("FirstPassageCDF with t[2]=%g: err = %v, want it to name t[2]", bad, err)
		}
	}
}

// TestFirstPassageCDFsCancelMidTerm: a context canceled between two
// uniformization terms of a lockstep group stops the batch with a typed
// cancellation that reaches the context error.
func TestFirstPassageCDFsCancelMidTerm(t *testing.T) {
	fam, err := NewChainFamily(famExplore(t, famModel(t, "1.5", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]float64, fam.StateSpace().NumStates())
	p0[0] = 1
	rates := [][]float64{{1.5, 0.25}, {1.5, 0.25}, {0.7, 3.1}}
	// The lockstep pair has the smaller q, so it runs first; its first
	// grid point needs well over six terms.
	polls := int32(5)
	ctx := countdownCtx{context.Background(), &polls}
	err = fam.FirstPassageCDFs(ctx, rates, p0, []int{1}, []float64{2, 4, 8}, 1e-10, nil, ignoreVisit)
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("want *runctx.ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if ec.Done != 0 || ec.Total != len(rates) || ec.Unit != "members" {
		t.Errorf("cancellation reports %d/%d %s, want 0/%d members", ec.Done, ec.Total, ec.Unit, len(rates))
	}
	var inner *runctx.ErrCanceled
	if !errors.As(ec.Cause, &inner) || inner.Unit != "uniformization terms" || inner.Done != 5 {
		t.Errorf("inner cancellation = %v, want one after 5 uniformization terms", ec.Cause)
	}
	if atomic.LoadInt32(&polls) >= 0 {
		t.Error("the context was never polled past its budget")
	}
}

package ctmc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
)

// familyFrom derives src and builds its family.
func familyFrom(t testing.TB, src string) *ChainFamily {
	t.Helper()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatal(err)
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

// lanFamilySource is a PC LAN of n stations sharing one think rate, each
// transmitting at its own rate: the rate sweep's model.
func lanFamilySource(n int) string {
	var b strings.Builder
	b.WriteString("think = 0.4; prop = 5.0;\n")
	var alts, set []string
	sys := "PC1"
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "tx_%d = %g;\n", i, 1.6+0.13*float64(i))
		fmt.Fprintf(&b, "PC%d = (think%d, think).PC%dw; PC%dw = (tx%d, tx_%d).PC%d;\n", i, i, i, i, i, i, i)
		alts = append(alts, fmt.Sprintf("(tx%d, T).Busy", i))
		set = append(set, fmt.Sprintf("tx%d", i))
		if i > 1 {
			sys = fmt.Sprintf("(%s || PC%d)", sys, i)
		}
	}
	fmt.Fprintf(&b, "Medium = %s;\nBusy = (propagate, prop).Medium;\n%s <%s> Medium\n",
		strings.Join(alts, " + "), sys, strings.Join(set, ","))
	return b.String()
}

// sweepRates returns the rate rows of a sweep of the named constant over
// values, every other constant at its value in the family's model.
func sweepRates(fam *ChainFamily, name string, values []float64) [][]float64 {
	model := fam.StateSpace().Model.Rates
	rates := make([][]float64, len(values))
	for k, v := range values {
		rates[k] = make([]float64, len(fam.rateNames))
		for c, rn := range fam.rateNames {
			rates[k][c] = model[rn]
			if rn == name {
				rates[k][c] = v
			}
		}
	}
	return rates
}

// thinkSweep is the rate sweep's think values: points of them over
// [0.1, 2.4].
func thinkSweep(points int) []float64 {
	v := make([]float64, points)
	for k := range v {
		v[k] = 0.1 + 2.3*float64(k)/float64(max(points-1, 1))
	}
	return v
}

// selfLoopFamily has states whose self-loops can cancel their diagonal:
// A loops at big and leaves at small, so a member with small below half
// an ulp of big has big + (-(big + small)) = 0 on A's diagonal slot, a
// slot its member chain drops. B does the same with big and r.
const selfLoopFamily = `
	big = 1; small = 1; r = 2;
	A = (loop, big).A + (go, small).B;
	B = (stay, big).B + (back, r).C;
	C = (ret, r).A + (skip, small).B;
	A`

// stiffFamilySource is a birth–death family of n states whose literal
// rates span six orders of magnitude, as stiffChain's do, with the first
// and last transitions re-rated by the constants a and b: the shape that
// starves both stationary iterations while BiCGStab converges.
func stiffFamilySource(n int) string {
	var b strings.Builder
	b.WriteString("a = 1; b = 1;\n")
	for i := 0; i < n; i++ {
		var alts []string
		if i < n-1 {
			up := fmt.Sprintf("%.3f", 1+1e6*float64(i)/float64(n))
			if i == 0 {
				up = "a"
			}
			alts = append(alts, fmt.Sprintf("(up, %s).S%d", up, i+1))
		}
		if i > 0 {
			down := fmt.Sprintf("%.3f", 1+1e6*float64(n-i+1)/float64(n))
			if i == n-1 {
				down = "b"
			}
			alts = append(alts, fmt.Sprintf("(down, %s).S%d", down, i-1))
		}
		fmt.Fprintf(&b, "S%d = %s;\n", i, strings.Join(alts, " + "))
	}
	b.WriteString("S0\n")
	return b.String()
}

// steadyCase is one family and its members' rate rows, solved with opt.
type steadyCase struct {
	tag   string
	fam   *ChainFamily
	rates [][]float64
	opt   SteadyStateOptions
}

// checkSteadyStates solves every member of c through SteadyStates and
// through ChainForRates + SteadyState, and fails t unless each member's
// distribution is Float64bits-equal, or both fail with the same error.
// A failing member ends its batch, so the members after it are solved by
// a fresh call. It returns how many members have a diagonal slot that
// sums to exactly 0 (an explicit zero on the slot pattern that the member
// chain drops) and escalated past Gauss–Seidel.
func checkSteadyStates(t *testing.T, c steadyCase, famReg, chainReg *obs.Registry) int {
	t.Helper()
	names := c.fam.RateNames()
	n := c.fam.StateSpace().NumStates()
	_, col := c.fam.plan.Pattern()
	explicitZeros := 0
	for from := 0; from < len(c.rates); {
		got := make([][]float64, len(c.rates))
		visited := 0
		err := c.fam.SteadyStates(context.Background(), c.rates[from:], c.opt, famReg, func(k int, pi []float64) {
			if k != visited {
				t.Fatalf("%s: member %d visited after %d members", c.tag, from+k, visited)
			}
			got[from+k] = pi
			visited++
		})
		for k := from; k < len(c.rates); k++ {
			env := make(map[string]float64, len(names))
			for i, name := range names {
				env[name] = c.rates[k][i]
			}
			chain, cerr := c.fam.ChainForRates(env)
			if cerr != nil {
				t.Fatal(cerr)
			}
			chain.Obs = chainReg
			before := chainReg.Counter("ctmc_steady_stages_total", obs.L("method", "gauss-seidel"), obs.L("outcome", "rejected"))
			want, werr := chain.SteadyState(c.opt)
			escalated := chainReg.Counter("ctmc_steady_stages_total", obs.L("method", "gauss-seidel"), obs.L("outcome", "rejected")) > before
			if chain.Q.NNZ() < len(col) && escalated {
				explicitZeros++
			}
			if k < from+visited {
				if werr != nil {
					t.Fatalf("%s: member %d: chain failed (%v) where the family solved it", c.tag, k, werr)
				}
				if len(got[k]) != n || !bitsEqual(got[k], want) {
					t.Fatalf("%s: member %d: family pi %v != chain pi %v", c.tag, k, got[k], want)
				}
				continue
			}
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("%s: member %d: family error %v, chain error %v", c.tag, k, err, werr)
			}
			from = k + 1
			break
		}
		if err == nil {
			break
		}
	}
	return explicitZeros
}

// TestSteadyStatesBitIdenticalBattery pins SteadyStates' exactness: every
// member's distribution is Float64bits-equal to its member chain's
// SteadyState, and a member the chain fails fails with the same error. It
// covers the family test models, random families (self-loops, literal
// rates, rates drawn across up to twelve decades), a family whose
// self-loops cancel a diagonal for some members, and a stiff family, under
// sweep budgets from one sweep to the default. The stage metrics of the
// family and chain solves must match, and across the battery each of the
// power, BiCGStab and dense rungs must accept some member, on a pattern
// holding an explicit zero for at least one escalated member.
func TestSteadyStatesBitIdenticalBattery(t *testing.T) {
	r := rng.New(20260418)
	famReg, chainReg := obs.NewRegistry(), obs.NewRegistry()
	budgets := []SteadyStateOptions{{}, {MaxIter: 1}, {MaxIter: 5}, {MaxIter: 40}}
	var cases []steadyCase
	draw := func(fam *ChainFamily, members int, lo, hi float64) [][]float64 {
		rates := make([][]float64, members)
		for k := range rates {
			rates[k] = make([]float64, len(fam.RateNames()))
			for c := range rates[k] {
				rates[k][c] = decade(r, lo, hi)
			}
		}
		return rates
	}
	tmpl := famModel(t, "1.5", "0.25")
	tmplFam, err := NewChainFamily(famExplore(t, tmpl))
	if err != nil {
		t.Fatal(err)
	}
	lan := familyFrom(t, lanFamilySource(4))
	loops := familyFrom(t, selfLoopFamily)
	stiff := familyFrom(t, stiffFamilySource(60))
	for i, opt := range budgets {
		cases = append(cases,
			steadyCase{fmt.Sprintf("template/%d", i), tmplFam, draw(tmplFam, 8, -3, 3), opt},
			steadyCase{fmt.Sprintf("lan/%d", i), lan, sweepRates(lan, "think", thinkSweep(6)), opt},
			steadyCase{fmt.Sprintf("stiff/%d", i), stiff, draw(stiff, 6, -2, 2), opt},
		)
		// Self-loop members: small and r either comparable to big or far
		// below half an ulp of it, so A's and B's diagonals cancel.
		rates := make([][]float64, 12)
		for k := range rates {
			big := decade(r, 0, 2)
			small, rr := decade(r, -1, 1), decade(r, -1, 1)
			if k%2 == 1 {
				big = decade(r, 18, 22)
			}
			rates[k] = []float64{big, rr, small} // RateNames order: big, r, small
		}
		cases = append(cases, steadyCase{fmt.Sprintf("self-loops/%d", i), loops, rates, opt})
	}
	for trial := 0; trial < 120; trial++ {
		fam := batteryFamily(t, r)
		lo, hi := -1.0, 1.0
		if trial%2 == 1 {
			lo, hi = -6, 6
		}
		cases = append(cases, steadyCase{fmt.Sprintf("random/%d", trial), fam, draw(fam, 1+r.Intn(12), lo, hi), budgets[trial%len(budgets)]})
	}
	if names := loops.RateNames(); strings.Join(names, ",") != "big,r,small" {
		t.Fatalf("self-loop family rate names %v", names)
	}
	zeros := 0
	for _, c := range cases {
		zeros += checkSteadyStates(t, c, famReg, chainReg)
	}
	var fb, cb strings.Builder
	if err := famReg.WritePrometheus(&fb); err != nil {
		t.Fatal(err)
	}
	if err := chainReg.WritePrometheus(&cb); err != nil {
		t.Fatal(err)
	}
	if fb.String() != cb.String() {
		t.Errorf("family stage metrics differ from the member chains':\n%s\nvs\n%s", fb.String(), cb.String())
	}
	for _, method := range []string{"gauss-seidel", "power-iteration", "bicgstab", "dense-lu"} {
		if famReg.Counter("ctmc_steady_stages_total", obs.L("method", method), obs.L("outcome", "accepted")) == 0 {
			t.Errorf("no member accepted at the %s rung", method)
		}
	}
	if zeros == 0 {
		t.Error("no escalated member had a diagonal slot summing to exactly 0")
	}
}

// TestSteadyStatesAllocatesOnlyPi pins the workspace: one call's
// workspace serves every member, so a call with 24 members allocates at
// most one more object per extra member — its pi — than a call with one.
func TestSteadyStatesAllocatesOnlyPi(t *testing.T) {
	fam := familyFrom(t, lanFamilySource(6))
	rates := sweepRates(fam, "think", thinkSweep(24))
	allocs := func(members int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := fam.SteadyStates(context.Background(), rates[:members], SteadyStateOptions{}, nil, func(int, []float64) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, all := allocs(1), allocs(24)
	if all > one+23 {
		t.Errorf("24 members allocate %.0f objects, one member %.0f: more than one object per extra member", all, one)
	}
}

// TestSteadyStatesConcurrentCalls: calls on one family share only its
// transpose plan, made by whichever call comes first, so concurrent calls
// on a fresh family (run under -race) agree bit for bit.
func TestSteadyStatesConcurrentCalls(t *testing.T) {
	fam := familyFrom(t, lanFamilySource(4))
	rates := sweepRates(fam, "think", thinkSweep(6))
	got := make([][][]float64, 4)
	var wg sync.WaitGroup
	for c := range got {
		got[c] = make([][]float64, len(rates))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fam.SteadyStates(context.Background(), rates, SteadyStateOptions{}, nil, func(k int, pi []float64) { got[c][k] = pi }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for k := range rates {
			if !bitsEqual(got[c][k], got[0][k]) {
				t.Fatalf("call %d member %d: %v vs %v", c, k, got[c][k], got[0][k])
			}
		}
	}
}

// TestSteadyStatesErrors: a malformed rate row fails before any member is
// solved, and a canceled context reports the members finished.
func TestSteadyStatesErrors(t *testing.T) {
	fam := familyFrom(t, lanFamilySource(3))
	rates := sweepRates(fam, "think", thinkSweep(4))
	visits := 0
	visit := func(int, []float64) { visits++ }
	bad := append([][]float64{}, rates...)
	bad[2] = append([]float64{}, rates[2]...)
	bad[2][0] = math.NaN()
	if err := fam.SteadyStates(context.Background(), bad, SteadyStateOptions{}, nil, visit); err == nil || !strings.Contains(err.Error(), "family member 2") {
		t.Errorf("NaN rate: err = %v", err)
	}
	if err := fam.SteadyStates(context.Background(), [][]float64{rates[0][1:]}, SteadyStateOptions{}, nil, visit); err == nil {
		t.Error("short rate row accepted")
	}
	if visits != 0 {
		t.Errorf("%d members solved before the rejection", visits)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fam.SteadyStates(ctx, rates, SteadyStateOptions{}, nil, visit)
	if err == nil || !strings.Contains(err.Error(), "ctmc.steady-batch: canceled after 0/4 members") {
		t.Errorf("canceled: err = %v", err)
	}
}

package derive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pepa"
)

func explore(t *testing.T, src string) *StateSpace {
	t.Helper()
	m, err := pepa.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res := pepa.Check(m); res.Err() != nil {
		t.Fatalf("check: %v", res.Err())
	}
	ss, err := Explore(m, Options{})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return ss
}

func TestTwoStateCycle(t *testing.T) {
	ss := explore(t, "P = (work, 1).P1; P1 = (rest, 2).P; P")
	if ss.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", ss.NumStates())
	}
	if ss.NumTransitions() != 2 {
		t.Fatalf("transitions = %d, want 2", ss.NumTransitions())
	}
	if got := ss.TotalExitRate(0); got != 1 {
		t.Errorf("exit rate of P = %g, want 1", got)
	}
}

func TestChoiceProducesTwoTransitions(t *testing.T) {
	ss := explore(t, "P = (a, 1).Q + (b, 2).R; Q = (x, 1).P; R = (y, 1).P; P")
	if len(ss.Trans[0]) != 2 {
		t.Fatalf("choice state has %d transitions, want 2", len(ss.Trans[0]))
	}
	if ss.NumStates() != 3 {
		t.Errorf("states = %d, want 3", ss.NumStates())
	}
}

func TestIndependentParallelInterleaving(t *testing.T) {
	// Two independent 2-state cycles: product space has 4 states, each with
	// 2 outgoing transitions.
	ss := explore(t, "P = (a, 1).P1; P1 = (b, 1).P; Q = (c, 1).Q1; Q1 = (d, 1).Q; P || Q")
	if ss.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", ss.NumStates())
	}
	for s := 0; s < 4; s++ {
		if len(ss.Trans[s]) != 2 {
			t.Errorf("state %d has %d transitions, want 2", s, len(ss.Trans[s]))
		}
	}
}

func TestCooperationSynchronizesAtMinRate(t *testing.T) {
	// Both sides must do "a" together; rates 2 and 3 give min 2.
	ss := explore(t, "P = (a, 2).P; Q = (a, 3).Q; P <a> Q")
	if ss.NumStates() != 1 {
		t.Fatalf("states = %d, want 1", ss.NumStates())
	}
	if len(ss.Trans[0]) != 1 {
		t.Fatalf("transitions = %d, want 1", len(ss.Trans[0]))
	}
	if got := ss.Trans[0][0].Rate; math.Abs(got-2) > 1e-15 {
		t.Errorf("shared rate = %g, want 2", got)
	}
}

func TestCooperationWithPassivePartner(t *testing.T) {
	// Passive side adopts the active rate.
	ss := explore(t, "P = (a, 1.5).P; Q = (a, T).Q; P <a> Q")
	if got := ss.Trans[0][0].Rate; math.Abs(got-1.5) > 1e-15 {
		t.Errorf("rate = %g, want 1.5", got)
	}
}

func TestPassiveWeightsSplitApparentRate(t *testing.T) {
	// Q = (a,T).Q1 + (a,T).Q2: two passive branches with weight 1 each.
	// Cooperating with P = (a,2).P gives each branch rate 1.
	ss := explore(t, "P = (a, 2).P; Q = (a, T).Q1 + (a, T).Q2; Q1 = (r1, 1).Q; Q2 = (r2, 1).Q; P <a> Q")
	var rates []float64
	for _, tr := range ss.Trans[0] {
		rates = append(rates, tr.Rate)
	}
	if len(rates) != 2 {
		t.Fatalf("got %d shared transitions, want 2", len(rates))
	}
	if math.Abs(rates[0]-1) > 1e-15 || math.Abs(rates[1]-1) > 1e-15 {
		t.Errorf("split rates = %v, want [1 1]", rates)
	}
}

func TestBothPassiveIsError(t *testing.T) {
	m := pepa.MustParse("P = (a, T).P; Q = (a, T).Q; P <a> Q")
	if _, err := Explore(m, Options{}); err == nil {
		t.Error("both-passive cooperation derived without error")
	}
}

func TestUnresolvedPassiveIsError(t *testing.T) {
	// A passive action with no cooperation partner must be rejected.
	m := pepa.MustParse("P = (a, T).P; P")
	if _, err := Explore(m, Options{}); err == nil {
		t.Error("unresolved passive rate accepted")
	}
}

func TestBlockedCooperationDeadlocks(t *testing.T) {
	// Q never offers "a", so the system deadlocks immediately.
	ss := explore(t, "P = (a, 1).P; Q = (b, 1).Q1; Q1 = (a, 1).Q1; P <a,b> Q")
	// Initial state can do b (shared? b is in the set and both must do it —
	// P never does b, so b blocks too). Everything blocks: 1 state, 0 transitions.
	if ss.NumStates() != 1 || ss.NumTransitions() != 0 {
		t.Errorf("states=%d transitions=%d, want 1/0", ss.NumStates(), ss.NumTransitions())
	}
	if dl := ss.Deadlocks(); len(dl) != 1 || dl[0] != 0 {
		t.Errorf("deadlocks = %v, want [0]", dl)
	}
}

func TestHidingRenamesToTau(t *testing.T) {
	ss := explore(t, "P = (a, 1).P1; P1 = (b, 2).P; (P)/{a}")
	found := false
	for _, tr := range ss.Trans[0] {
		if tr.Action == pepa.Tau {
			found = true
			if math.Abs(tr.Rate-1) > 1e-15 {
				t.Errorf("tau rate = %g, want 1", tr.Rate)
			}
		}
		if tr.Action == "a" {
			t.Error("hidden action a still visible")
		}
	}
	if !found {
		t.Error("no tau transition after hiding")
	}
	if len(ss.ActionTypes) != 2 || ss.ActionTypes[0] != "b" || ss.ActionTypes[1] != pepa.Tau {
		t.Errorf("action types = %v, want [b tau]", ss.ActionTypes)
	}
}

func TestApparentRateOfChoice(t *testing.T) {
	m := pepa.MustParse("P = (a, 1).P + (a, 2).P + (b, 5).P; P")
	d := NewDeriver(m)
	ra, err := d.ApparentRate(&pepa.Const{Name: "P"}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Passive || math.Abs(ra.Value-3) > 1e-15 {
		t.Errorf("apparent rate of a = %v, want 3", ra)
	}
}

func TestApparentRateConservedByCooperation(t *testing.T) {
	// The total rate of the shared action equals min of the apparent
	// rates, regardless of branching structure.
	ss := explore(t, "P = (a, 1).P + (a, 3).P; Q = (a, 2).Q + (a, 2).Q; P <a> Q")
	var total float64
	for _, tr := range ss.Trans[0] {
		total += tr.Rate
	}
	if math.Abs(total-4) > 1e-12 { // min(1+3, 2+2) = 4
		t.Errorf("total shared rate = %g, want 4", total)
	}
}

func TestStateSpaceBound(t *testing.T) {
	// A 10-stage pipeline of independent toggles would have 2^10 states.
	var b strings.Builder
	var names []string
	for i := 0; i < 10; i++ {
		n := string(rune('A' + i))
		b.WriteString(n + " = (t" + n + ", 1)." + n + "1; " + n + "1 = (u" + n + ", 1)." + n + "; ")
		names = append(names, n)
	}
	b.WriteString(strings.Join(names, " || "))
	m := pepa.MustParse(b.String())
	_, err := Explore(m, Options{MaxStates: 100})
	if err == nil {
		t.Fatal("exploration beyond MaxStates succeeded")
	}
	if !strings.Contains(err.Error(), "state space exceeds") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDeterministicStateOrder(t *testing.T) {
	src := "P = (a, 1).P1; P1 = (b, 1).P2; P2 = (c, 1).P; Q = (a, T).Q; P <a> Q"
	a := explore(t, src)
	b := explore(t, src)
	if a.NumStates() != b.NumStates() {
		t.Fatal("state counts differ between runs")
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			t.Errorf("state %d differs: %q vs %q", i, a.States[i], b.States[i])
		}
	}
}

func TestStatesMatching(t *testing.T) {
	ss := explore(t, "P = (a, 1).P1; P1 = (b, 1).P; P")
	ids := ss.StatesMatching(func(term string) bool { return term == "P1" })
	if len(ids) != 1 {
		t.Fatalf("matching states = %v", ids)
	}
}

func TestSharedActionAggregationThreeWay(t *testing.T) {
	// (P <a> Q) <a> R: nested cooperation on the same action. Apparent
	// rates: P=4, Q=6 -> inner 4; inner vs R=2 -> total 2.
	ss := explore(t, "P = (a, 4).P; Q = (a, 6).Q; R = (a, 2).R; (P <a> Q) <a> R")
	var total float64
	for _, tr := range ss.Trans[0] {
		total += tr.Rate
	}
	if math.Abs(total-2) > 1e-12 {
		t.Errorf("three-way shared rate = %g, want 2", total)
	}
}

func TestHidingInsideCooperation(t *testing.T) {
	// Hidden action cannot synchronize: (P/{a}) <a> Q blocks on a.
	ss := explore(t, "P = (a, 1).P; Q = (a, T).Q; (P/{a}) <a> Q")
	// P's a becomes tau, which interleaves freely; Q's passive a never
	// resolves but also never fires since apparent rate on the left is 0.
	if ss.NumTransitions() == 0 {
		t.Fatal("expected tau transitions to remain")
	}
	for s := range ss.States {
		for _, tr := range ss.Trans[s] {
			if tr.Action == "a" {
				t.Error("hidden action leaked through cooperation")
			}
		}
	}
}

func TestRightNestedCooperationKeepsItsOwnTransitions(t *testing.T) {
	// (P <a> Q) <b> R and P <a> (Q <b> R) are different terms: in the
	// first, P's b synchronizes with R at rate min(1, 0.5); in the second,
	// P's b interleaves at rate 1. A term key that rendered both alike
	// would let the memo hand one operand the other's transitions.
	ss := explore(t, `r = 1; s = 0.5;
P = (a, r).P + (b, r).P; Q = (a, r).Q; R = (b, s).R + (c, s).R;
((P <a> Q) <b> R) <> (P <a> (Q <b> R))`)
	sys := ss.Model.System.(*pepa.Coop)
	var want []Transition
	for _, op := range []pepa.Process{sys.Left, sys.Right} {
		ts, err := NewDeriver(ss.Model).Transitions(op)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ts...)
	}
	got := ss.Trans[0]
	if len(got) != len(want) {
		t.Fatalf("state 0 has %d transitions, the operands derived separately %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Action != w.Action || got[i].Rate != w.Rate.Value || got[i].To != 0 {
			t.Errorf("transition %d = (%s, %g) to %d, want (%s, %g) to 0", i, got[i].Action, got[i].Rate, got[i].To, w.Action, w.Rate.Value)
		}
	}
}

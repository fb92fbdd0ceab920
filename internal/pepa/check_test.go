package pepa

import (
	"errors"
	"strings"
	"testing"
)

func checkOf(t *testing.T, src string) *CheckResult {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(m)
}

func TestCheckCleanModel(t *testing.T) {
	res := checkOf(t, "r = 1; P = (a, r).P1; P1 = (b, 2).P; Q = (a, T).Q; P <a> Q")
	if err := res.Err(); err != nil {
		t.Errorf("clean model reported error: %v", err)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("clean model reported warnings: %v", res.Warnings)
	}
}

func TestCheckUndefinedProcess(t *testing.T) {
	res := checkOf(t, "P = (a, 1).Missing; P")
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "Missing") {
		t.Errorf("undefined process not reported: %v", res.Errors)
	}
}

func TestCheckUndefinedRate(t *testing.T) {
	res := checkOf(t, "P = (a, nowhere).P; P")
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "nowhere") {
		t.Errorf("undefined rate not reported: %v", res.Errors)
	}
}

func TestCheckNonPositiveRate(t *testing.T) {
	res := checkOf(t, "z = 1 - 1; P = (a, z).P; P")
	if res.Err() == nil {
		t.Errorf("zero rate not reported: %v", res.Errors)
	}
}

func TestCheckUnguardedRecursion(t *testing.T) {
	res := checkOf(t, "P = Q; Q = P; P")
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "unguarded") {
		t.Errorf("unguarded recursion not reported: %v", res.Errors)
	}
}

func TestCheckUnguardedSelfLoop(t *testing.T) {
	res := checkOf(t, "P = P + (a,1).P; P")
	if res.Err() == nil {
		t.Errorf("unguarded self loop not reported: %v", res.Errors)
	}
}

func TestCheckGuardedRecursionOK(t *testing.T) {
	res := checkOf(t, "P = (a,1).Q; Q = (b,1).P; P")
	if err := res.Err(); err != nil {
		t.Errorf("guarded recursion rejected: %v", err)
	}
}

func TestCheckCoopOverUnusedActionWarns(t *testing.T) {
	res := checkOf(t, "P = (a,1).P; Q = (b,1).Q; P <c> Q")
	if len(res.Warnings) == 0 {
		t.Error("cooperation over unused action produced no warning")
	}
}

func TestCheckHideUnusedActionWarns(t *testing.T) {
	res := checkOf(t, "P = (a,1).P; P/{zz}")
	if len(res.Warnings) == 0 {
		t.Error("hiding an unused action produced no warning")
	}
}

func TestCheckCoopInsideSequentialComponent(t *testing.T) {
	// Build programmatically: (a,1).(P <> Q) is not expressible in the
	// two-level grammar and must be rejected.
	m := NewModel()
	m.Define("P", &Prefix{Action: "a", Rate: &RateLit{Value: 1},
		Cont: NewCoop(&Const{Name: "P"}, &Const{Name: "P"}, nil)})
	m.System = &Const{Name: "P"}
	res := Check(m)
	if res.Err() == nil {
		t.Errorf("cooperation under prefix not reported: %v", res.Errors)
	}
}

func TestCheckHidingInsideChoice(t *testing.T) {
	m := NewModel()
	m.Define("P", &Choice{
		Left:  &Prefix{Action: "a", Rate: &RateLit{Value: 1}, Cont: &Const{Name: "P"}},
		Right: NewHide(&Const{Name: "P"}, []string{"a"}),
	})
	m.System = &Const{Name: "P"}
	res := Check(m)
	if res.Err() == nil {
		t.Errorf("hiding inside choice not reported: %v", res.Errors)
	}
}

func TestCheckCompositeConstantInsideSequentialComponent(t *testing.T) {
	// The constant hides the cooperation from a syntactic check: Sys is a
	// sequential continuation of P, but stands for Q <b> R.
	for _, src := range []string{
		"r = 1; P = (a, r).Sys; Sys = Q <b> R; Q = (b, 1).Q; R = (b, T).R; P",
		"r = 1; P = (a, r).P + Sys; Sys = Alias; Alias = (Q <b> R)/{b}; Q = (b, 1).Q; R = (b, T).R; P <a> P",
	} {
		res := checkOf(t, src)
		var ce *CompositeConstError
		if !errors.As(res.Err(), &ce) || ce.Name != "Sys" {
			t.Errorf("%s: got %v, want a CompositeConstError naming Sys", src, res.Errors)
		}
	}
	// A composite constant at the top level is fine.
	if err := checkOf(t, "Sys = Q <b> R; Q = (b, 1).Q; R = (b, T).R; Sys <> Sys").Err(); err != nil {
		t.Errorf("composite constant in the system equation rejected: %v", err)
	}
}

func TestCheckNoSystem(t *testing.T) {
	m := NewModel()
	res := Check(m)
	if res.Err() == nil {
		t.Error("model without system accepted")
	}
}

func TestCheckTauInCoopSet(t *testing.T) {
	m := NewModel()
	m.Define("P", &Prefix{Action: "a", Rate: &RateLit{Value: 1}, Cont: &Const{Name: "P"}})
	m.System = NewCoop(&Const{Name: "P"}, &Const{Name: "P"}, []string{Tau})
	res := Check(m)
	if res.Err() == nil {
		t.Error("tau in cooperation set accepted")
	}
}

package poisson

import (
	"math"
	"testing"
	"testing/quick"
)

func naivePmf(lambda float64, k int) float64 {
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(-lambda + float64(k)*math.Log(lambda) - lg)
}

func TestZeroLambdaIsPointMass(t *testing.T) {
	w, err := Compute(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if w.Left != 0 || w.Right != 0 || w.Pmf(0) != 1 {
		t.Errorf("lambda=0 weights = %+v, want point mass at 0", w)
	}
}

func TestSmallLambdaMatchesDirectPmf(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 2.5, 10} {
		w, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatalf("lambda=%g: %v", lambda, err)
		}
		for k := w.Left; k <= w.Right; k++ {
			want := naivePmf(lambda, k)
			if got := w.Pmf(k); math.Abs(got-want) > 1e-12*math.Max(1, want) && math.Abs(got-want) > 1e-15 {
				t.Errorf("lambda=%g k=%d: pmf %g, want %g", lambda, k, got, want)
			}
		}
	}
}

func TestMassCaptured(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 50, 500, 5000} {
		w, err := Compute(lambda, 1e-10)
		if err != nil {
			t.Fatalf("lambda=%g: %v", lambda, err)
		}
		if w.TotalMass < 1-1e-10 {
			t.Errorf("lambda=%g: captured mass %g < 1-eps", lambda, w.TotalMass)
		}
		if w.TotalMass > 1+1e-9 {
			t.Errorf("lambda=%g: captured mass %g > 1", lambda, w.TotalMass)
		}
	}
}

func TestWindowCoversMode(t *testing.T) {
	for _, lambda := range []float64{1, 17.3, 400} {
		w, err := Compute(lambda, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		mode := int(lambda)
		if mode < w.Left || mode > w.Right {
			t.Errorf("lambda=%g: mode %d outside window [%d,%d]", lambda, mode, w.Left, w.Right)
		}
	}
}

func TestPmfOutsideWindowIsZero(t *testing.T) {
	w, err := Compute(10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Pmf(w.Left-1) != 0 || w.Pmf(w.Right+1) != 0 {
		t.Error("pmf outside window is nonzero")
	}
}

func TestNegativeAndBadEps(t *testing.T) {
	if _, err := Compute(-1, 1e-9); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := Compute(1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Compute(1, 1); err == nil {
		t.Error("eps=1 accepted")
	}
}

// TestNonFiniteLambdaRejected: NaN fails every ordered comparison, so the
// upward walk's stopping test never held and the window grew until memory
// ran out; +Inf walked the same way from a NaN mode pmf.
func TestNonFiniteLambdaRejected(t *testing.T) {
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Compute(lambda, 1e-10); err == nil {
			t.Errorf("lambda=%g accepted", lambda)
		}
	}
}

func TestLargeLambdaWindowWidth(t *testing.T) {
	// For large lambda the window should be O(sqrt(lambda)) wide, not
	// O(lambda).
	lambda := 1e4
	w, err := Compute(lambda, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	width := float64(w.Right - w.Left)
	if width > 40*math.Sqrt(lambda) {
		t.Errorf("window width %g too wide for lambda=%g", width, lambda)
	}
}

func TestMassProperty(t *testing.T) {
	f := func(raw float64) bool {
		lambda := math.Abs(raw)
		if lambda > 1e5 {
			lambda = math.Mod(lambda, 1e5)
		}
		w, err := Compute(lambda, 1e-8)
		if err != nil {
			return false
		}
		return w.TotalMass >= 1-1e-8 && w.Left >= 0 && w.Right >= w.Left
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4.5)
	m.Add(1, 2, 0.5)
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %g, want 1", got)
	}
	if got := m.At(1, 2); got != -4 {
		t.Errorf("At(1,2) = %g, want -4", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %g, want 0", got)
	}
}

func TestMulVec(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestLUSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := NewDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factorize(a); err == nil {
		t.Error("Factorize of singular matrix succeeded, want error")
	}
}

func TestLUSolveRandomRoundTrip(t *testing.T) {
	// Property: for diagonally dominant A and any b, A·solve(A,b) == b.
	f := func(seed int64) bool {
		n := 6
		a := NewDense(n, n)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / (1 << 53)
		}
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := next() - 0.5
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = next() * 10
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if !almostEqual(back[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Errorf("NormInf = %g, want 7", got)
	}
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %g, want 6.5", got)
	}
	v := []float64{2, 6}
	if s := Normalize1(v); s != 8 {
		t.Errorf("Normalize1 returned %g, want 8", s)
	}
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Errorf("Normalize1 result = %v", v)
	}
	z := []float64{0, 0}
	if s := Normalize1(z); s != 0 {
		t.Errorf("Normalize1 of zero vector returned %g", s)
	}
}

func TestNormalize1Property(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			if !(x < 1e6) { // also catches NaN and Inf
				x = math.Mod(x, 1e6)
				if math.IsNaN(x) {
					x = 1
				}
			}
			return x + 0.1
		}
		v := []float64{clamp(a), clamp(b), clamp(c)}
		Normalize1(v)
		return almostEqual(Sum(v), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

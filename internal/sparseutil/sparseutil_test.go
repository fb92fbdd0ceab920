package sparseutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{
		-0.5:                         0,
		0:                            0,
		0.25:                         0.25,
		1:                            1,
		1.0001:                       1,
		42:                           1,
		math.Inf(1):                  1,
		math.Inf(-1):                 0,
		math.NaN():                   0, // NaN must not propagate through probability post-processing
		-math.SmallestNonzeroFloat64: 0,
	}
	for in, want := range cases {
		if got := Clamp01(in); got != want {
			t.Errorf("Clamp01(%g) = %g, want %g", in, got, want)
		}
	}
}

// TestClamp01NeverNaN: the output is always a valid probability, for
// any input bit pattern.
func TestClamp01NeverNaN(t *testing.T) {
	f := func(bits uint64) bool {
		y := Clamp01(math.Float64frombits(bits))
		return !math.IsNaN(y) && y >= 0 && y <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01Property(t *testing.T) {
	f := func(x float64) bool {
		y := Clamp01(x)
		return y >= 0 && y <= 1 && (x < 0 || x > 1 || y == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

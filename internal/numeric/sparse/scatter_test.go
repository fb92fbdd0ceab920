package sparse

import (
	"math"
	"testing"
)

// randomCSR builds a random n×n matrix from an LCG stream, mixing empty
// rows, a dense row, and negative values.
func randomCSR(s *uint64, n int) *CSR {
	next := func() float64 {
		*s = *s*6364136223846793005 + 1442695040888963407
		return float64(*s>>11) / (1 << 53)
	}
	b := NewBuilder(n, n, 0)
	denseRow := int(next() * float64(n))
	for i := 0; i < n; i++ {
		if i != denseRow && next() < 0.2 {
			continue // empty row
		}
		for j := 0; j < n; j++ {
			if i == denseRow || next() < 0.35 {
				b.Add(i, j, next()*4-2)
			}
		}
	}
	return b.CSR()
}

func TestVecMulAccumScatterMatchesFullScatter(t *testing.T) {
	s := uint64(42)
	for round := 0; round < 50; round++ {
		n := 1 + int(s%37)
		m := randomCSR(&s, n)
		x := make([]float64, n)
		lo, hi := n/3, n-n/4 // support window; zero outside
		if lo >= hi {
			lo, hi = 0, n
		}
		for i := lo; i < hi; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			if i%3 != 0 {
				x[i] = float64(s>>11)/(1<<52) - 1
			}
		}
		want := make([]float64, n)
		m.VecMulTo(want, x)
		wantAcc := make([]float64, n)
		for i := range wantAcc {
			if x[i] != 0 {
				wantAcc[i] += 0.25 * x[i]
			}
		}
		got := make([]float64, n)
		acc := make([]float64, n)
		ylo, yhi := m.VecMulAccumScatter(got, x, acc, 0.25, lo, hi)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: y[%d] = %g, want %g", round, i, got[i], want[i])
			}
			if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
				t.Fatalf("round %d: acc[%d] = %g, want %g", round, i, acc[i], wantAcc[i])
			}
			// The returned window must bound every nonzero of y.
			if got[i] != 0 && (i < ylo || i >= yhi) {
				t.Fatalf("round %d: nonzero y[%d] outside window [%d,%d)", round, i, ylo, yhi)
			}
		}
	}
}

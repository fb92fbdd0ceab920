package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func buildTestCSR() *CSR {
	// [ 4 -1  0 ]
	// [-1  4 -1 ]
	// [ 0 -1  4 ]
	c := NewCOO(3, 3)
	c.Add(0, 0, 4)
	c.Add(0, 1, -1)
	c.Add(1, 0, -1)
	c.Add(1, 1, 4)
	c.Add(1, 2, -1)
	c.Add(2, 1, -1)
	c.Add(2, 2, 4)
	return c.ToCSR()
}

func TestCOODuplicateSummation(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 1.5)
	c.Add(0, 1, 2.5)
	c.Add(1, 0, 3)
	c.Add(1, 0, -3) // cancels to zero and must be dropped
	m := c.ToCSR()
	if got := m.At(0, 1); got != 4 {
		t.Errorf("At(0,1) = %g, want 4", got)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (cancelled entry should be dropped)", m.NNZ())
	}
}

func TestCSRAtAndRow(t *testing.T) {
	m := buildTestCSR()
	if got := m.At(1, 1); got != 4 {
		t.Errorf("At(1,1) = %g, want 4", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("At(0,2) = %g, want 0", got)
	}
	var cols []int
	m.Row(1, func(j int, v float64) { cols = append(cols, j) })
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 1 || cols[2] != 2 {
		t.Errorf("Row(1) columns = %v, want [0 1 2]", cols)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	m := buildTestCSR()
	x := []float64{1, 2, 3}
	y := m.MulVec(x)
	want := []float64{4*1 - 2, -1 + 8 - 3, -2 + 12}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Errorf("MulVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestVecMulIsTransposeMulVec(t *testing.T) {
	m := buildTestCSR()
	x := []float64{1, -2, 0.5}
	left := m.VecMul(x)
	right := m.Transpose().MulVec(x)
	for i := range left {
		if math.Abs(left[i]-right[i]) > 1e-14 {
			t.Errorf("VecMul[%d] = %g, transpose·x = %g", i, left[i], right[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := buildTestCSR()
	tt := m.Transpose().Transpose()
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatalf("double transpose changed shape")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tt.At(i, j) {
				t.Errorf("double transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestToDenseAndDiag(t *testing.T) {
	m := buildTestCSR()
	d := m.ToDense()
	if d[0][0] != 4 || d[0][1] != -1 || d[2][2] != 4 {
		t.Errorf("ToDense mismatch: %v", d)
	}
	diag := m.Diag()
	if diag[0] != 4 || diag[1] != 4 || diag[2] != 4 {
		t.Errorf("Diag = %v, want [4 4 4]", diag)
	}
}

func TestGaussSeidelSolvesSPDSystem(t *testing.T) {
	m := buildTestCSR()
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	res, err := GaussSeidel(m, x, b, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Gauss-Seidel did not converge: %+v", res)
	}
	y := m.MulVec(x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-9 {
			t.Errorf("residual[%d] = %g", i, y[i]-b[i])
		}
	}
}

func TestGaussSeidelZeroDiagonal(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	m := c.ToCSR()
	x := make([]float64, 2)
	if _, err := GaussSeidel(m, x, []float64{1, 1}, IterOptions{}); err == nil {
		t.Error("GaussSeidel with zero diagonal succeeded, want error")
	}
}

func TestPowerIterationTwoState(t *testing.T) {
	// P = [[0.5 0.5], [0.25 0.75]] has stationary distribution (1/3, 2/3).
	c := NewCOO(2, 2)
	c.Add(0, 0, 0.5)
	c.Add(0, 1, 0.5)
	c.Add(1, 0, 0.25)
	c.Add(1, 1, 0.75)
	pi, res, err := PowerIteration(c.ToCSR(), IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("power iteration did not converge: %+v", res)
	}
	if math.Abs(pi[0]-1.0/3) > 1e-9 || math.Abs(pi[1]-2.0/3) > 1e-9 {
		t.Errorf("stationary = %v, want [1/3 2/3]", pi)
	}
}

func TestMulVecRoundTripProperty(t *testing.T) {
	// Property: (A^T)^T x == A x for random sparse A.
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		n := 8
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if next() < 0.3 {
					c.Add(i, j, next()*4-2)
				}
			}
		}
		m := c.ToCSR()
		x := make([]float64, n)
		for i := range x {
			x[i] = next()*2 - 1
		}
		a := m.MulVec(x)
		b := m.Transpose().Transpose().MulVec(x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceToCSR is the pre-optimization O(nnz log nnz) conversion: one
// global stable sort by (row, col) followed by duplicate summation in
// insertion order. ToCSR must stay bit-identical to it.
func referenceToCSR(c *COO) *CSR {
	ents := make([]Triplet, len(c.entries))
	copy(ents, c.entries)
	sort.SliceStable(ents, func(a, b int) bool {
		if ents[a].Row != ents[b].Row {
			return ents[a].Row < ents[b].Row
		}
		return ents[a].Col < ents[b].Col
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for k := 0; k < len(ents); {
		i, j := ents[k].Row, ents[k].Col
		var v float64
		for k < len(ents) && ents[k].Row == i && ents[k].Col == j {
			v += ents[k].Val
			k++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
			m.RowPtr[i+1]++
		}
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

func TestToCSRMatchesStableSortReference(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		rows, cols := 1+int(next()*20), 1+int(next()*20)
		c := NewCOO(rows, cols)
		n := int(next() * 200)
		for e := 0; e < n; e++ {
			i, j := int(next()*float64(rows)), int(next()*float64(cols))
			// Duplicates (likely at this density) and exact cancellations
			// both exercise the dedup-sum path; values with many mantissa
			// bits make any reordering of the summation visible.
			v := next()*4 - 2
			if next() < 0.1 {
				v = 0
			}
			c.Add(i, j, v)
			if next() < 0.2 {
				c.Add(i, j, -v) // cancels only if summed adjacently
			}
		}
		return csrEqual(c.ToCSR(), referenceToCSR(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewCOOCapacityHint(t *testing.T) {
	c := NewCOO(4, 4, 16)
	if cap(c.entries) != 16 {
		t.Errorf("capacity hint ignored: cap = %d, want 16", cap(c.entries))
	}
	c.Add(1, 2, 3)
	if got := c.ToCSR().At(1, 2); got != 3 {
		t.Errorf("At(1,2) = %g, want 3", got)
	}
	// A non-positive hint must not panic or allocate.
	if c2 := NewCOO(2, 2, 0); c2.entries != nil {
		t.Error("zero hint allocated entries")
	}
}

func TestDiagSkipsMissingDiagonal(t *testing.T) {
	// Row 0 has entries only off the diagonal; row 1 is empty; row 2 has a
	// diagonal entry after an off-diagonal one.
	c := NewCOO(3, 3)
	c.Add(0, 1, 5)
	c.Add(0, 2, 6)
	c.Add(2, 0, -1)
	c.Add(2, 2, 9)
	d := c.ToCSR().Diag()
	if d[0] != 0 || d[1] != 0 || d[2] != 9 {
		t.Errorf("Diag = %v, want [0 0 9]", d)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of bounds did not panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

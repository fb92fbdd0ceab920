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
	b := NewBuilder(3, 3, 0)
	b.Add(0, 0, 4)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 4)
	b.Add(1, 2, -1)
	b.Add(2, 1, -1)
	b.Add(2, 2, 4)
	return b.CSR()
}

func TestBuilderDuplicateSummation(t *testing.T) {
	b := NewBuilder(2, 2, 0)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, 3)
	b.Add(1, 0, -3) // cancels to zero and must be dropped
	m := b.CSR()
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
	b := NewBuilder(2, 2, 0)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	m := b.CSR()
	x := make([]float64, 2)
	if _, err := GaussSeidel(m, x, []float64{1, 1}, IterOptions{}); err == nil {
		t.Error("GaussSeidel with zero diagonal succeeded, want error")
	}
}

func TestPowerIterationTwoState(t *testing.T) {
	// P = [[0.5 0.5], [0.25 0.75]] has stationary distribution (1/3, 2/3).
	b := NewBuilder(2, 2, 0)
	b.Add(0, 0, 0.5)
	b.Add(0, 1, 0.5)
	b.Add(1, 0, 0.25)
	b.Add(1, 1, 0.75)
	pi, res, err := PowerIteration(b.CSR(), IterOptions{})
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
		bld := NewBuilder(n, n, 0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if next() < 0.3 {
					bld.Add(i, j, next()*4-2)
				}
			}
		}
		m := bld.CSR()
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

// entries is a coordinate list in insertion order: entry k is
// (row[k], col[k], val[k]). Row-ordered lists feed a Builder (build) and
// an AssemblyPlan (plan); referenceToCSR assembles any list.
type entries struct {
	rows, cols int
	row, col   []int
	val        []float64
}

func (e *entries) add(i, j int, v float64) {
	e.row = append(e.row, i)
	e.col = append(e.col, j)
	e.val = append(e.val, v)
}

// build adds the entries, which must be row-ordered, to a Builder.
func (e *entries) build() *CSR {
	return e.buildVals(e.val)
}

// buildVals is build with the values replaced by vals.
func (e *entries) buildVals(vals []float64) *CSR {
	b := NewBuilder(e.rows, e.cols, len(vals))
	for k, v := range vals {
		b.Add(e.row[k], e.col[k], v)
	}
	return b.CSR()
}

// plan plans the row-ordered entries' pattern.
func (e *entries) plan() *AssemblyPlan {
	rowPtr := make([]int, e.rows+1)
	for _, i := range e.row {
		rowPtr[i+1]++
	}
	for i := 0; i < e.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return NewAssemblyPlan(e.rows, e.cols, rowPtr, e.col)
}

// referenceToCSR is the O(nnz log nnz) conversion the row assembly
// replaced: one global stable sort of the entries by (row, col), then
// duplicate summation in insertion order and exact-zero drops. Builder and
// AssemblyPlan.Gather must stay bit-identical to it.
func referenceToCSR(e *entries) *CSR {
	idx := make([]int, len(e.val))
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if e.row[idx[a]] != e.row[idx[b]] {
			return e.row[idx[a]] < e.row[idx[b]]
		}
		return e.col[idx[a]] < e.col[idx[b]]
	})
	m := &CSR{Rows: e.rows, Cols: e.cols, RowPtr: make([]int, e.rows+1)}
	for k := 0; k < len(idx); {
		i, j := e.row[idx[k]], e.col[idx[k]]
		var v float64
		for k < len(idx) && e.row[idx[k]] == i && e.col[idx[k]] == j {
			v += e.val[idx[k]]
			k++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
			m.RowPtr[i+1]++
		}
	}
	for i := 0; i < e.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// csrEqual compares shape, pattern and the Float64bits of every value.
func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() || len(a.RowPtr) != len(b.RowPtr) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// randomRows draws a row-ordered entry list from an LCG stream: empty
// rows, duplicate coordinates, exact zeros, and pairs that cancel only if
// summed adjacently. Values with many mantissa bits make any reordering
// of a summation visible.
func randomRows(next func() float64) *entries {
	e := &entries{rows: 1 + int(next()*20), cols: 1 + int(next()*20)}
	for i := 0; i < e.rows; i++ {
		for k := int(next() * 12); k > 0; k-- {
			j := int(next() * float64(e.cols))
			v := next()*4 - 2
			if next() < 0.1 {
				v = 0
			}
			e.add(i, j, v)
			if next() < 0.2 {
				e.add(i, j, -v)
			}
		}
	}
	return e
}

// lcg returns a deterministic uniform [0, 1) stream seeded by seed.
func lcg(seed int64) func() float64 {
	s := uint64(seed)
	return func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
}

func TestBuilderMatchesStableSortReference(t *testing.T) {
	f := func(seed int64) bool {
		e := randomRows(lcg(seed))
		return csrEqual(e.build(), referenceToCSR(e))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewBuilderCapacityHint(t *testing.T) {
	b := NewBuilder(4, 4, 16)
	if cap(b.m.ColIdx) != 16 || cap(b.m.Val) != 16 {
		t.Errorf("capacity hint ignored: cap = %d, %d, want 16", cap(b.m.ColIdx), cap(b.m.Val))
	}
	b.Add(1, 2, 3)
	if got := b.CSR().At(1, 2); got != 3 {
		t.Errorf("At(1,2) = %g, want 3", got)
	}
	// A non-positive hint must not panic or allocate.
	if b2 := NewBuilder(2, 2, 0); b2.m.ColIdx != nil || b2.m.Val != nil {
		t.Error("zero hint allocated entries")
	}
}

func TestDiagSkipsMissingDiagonal(t *testing.T) {
	// Row 0 has entries only off the diagonal; row 1 is empty; row 2 has a
	// diagonal entry after an off-diagonal one.
	b := NewBuilder(3, 3, 0)
	b.Add(0, 1, 5)
	b.Add(0, 2, 6)
	b.Add(2, 0, -1)
	b.Add(2, 2, 9)
	d := b.CSR().Diag()
	if d[0] != 0 || d[1] != 0 || d[2] != 9 {
		t.Errorf("Diag = %v, want [0 0 9]", d)
	}
}

// TestOutOfBoundsPanics pins every malformed input the row assembly
// rejects: an entry outside the matrix, a row added after a later one, a
// negative shape, and a plan pattern whose row pointers or columns do not
// fit its shape.
func TestOutOfBoundsPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("row past the end", func() { NewBuilder(2, 2, 0).Add(2, 0, 1) })
	mustPanic("negative row", func() { NewBuilder(2, 2, 0).Add(-1, 0, 1) })
	mustPanic("column past the end", func() { NewBuilder(2, 2, 0).Add(0, 2, 1) })
	mustPanic("negative column", func() { NewBuilder(2, 2, 0).Add(0, -1, 1) })
	mustPanic("row out of order", func() {
		b := NewBuilder(3, 3, 0)
		b.Add(1, 0, 1)
		b.Add(0, 0, 1)
	})
	mustPanic("add after CSR", func() {
		b := NewBuilder(2, 2, 0)
		b.CSR()
		b.Add(1, 1, 1)
	})
	mustPanic("negative shape", func() { NewBuilder(-1, 2, 0) })
	mustPanic("plan rows mismatch", func() { NewAssemblyPlan(3, 3, []int{0, 1, 2}, []int{0, 1}) })
	mustPanic("plan entries mismatch", func() { NewAssemblyPlan(2, 2, []int{0, 1, 1}, []int{0, 1}) })
	mustPanic("plan column past the end", func() { NewAssemblyPlan(2, 2, []int{0, 1, 2}, []int{0, 2}) })
	mustPanic("plan negative column", func() { NewAssemblyPlan(2, 2, []int{0, 1, 2}, []int{-1, 1}) })
}

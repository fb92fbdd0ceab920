// Package linalg provides small dense linear-algebra kernels used by the
// CTMC solvers: LU factorization with partial pivoting, triangular solves,
// and basic vector operations.
//
// The package is deliberately dependency-free and deterministic: given the
// same inputs it produces bit-identical outputs on every platform, which the
// container-reproducibility harness relies on when comparing native and
// containerized solver runs.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m·x. It panics if dimensions mismatch.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu  *Dense
	piv []int
}

// Factorize computes the LU factorization of a square matrix a using
// Doolittle's method with partial pivoting. The input matrix is not
// modified.
func Factorize(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot factorize non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the row with the largest magnitude in column k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			ra := lu.Data[p*n : (p+1)*n]
			rb := lu.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ra[j], rb[j] = rb[j], ra[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b for x given the factorization of A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply the permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with the unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.Data[i*n:]
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n:]
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// SolveDense is a convenience wrapper: factorize a and solve a·x = b.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// NormInf returns the maximum-magnitude entry of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Scale multiplies every entry of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Normalize1 scales v so its entries sum to 1, returning the original sum.
// If the sum is zero the vector is left unchanged.
func Normalize1(v []float64) float64 {
	s := Sum(v)
	if s != 0 {
		Scale(1/s, v)
	}
	return s
}

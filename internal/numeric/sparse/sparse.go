// Package sparse implements the compressed sparse row (CSR) matrix format
// and the iterative kernels (Gauss–Seidel, power iteration, BiCGStab) used
// to solve the large, sparse linear systems that arise from CTMC generator
// matrices.
//
// Matrices are assembled row by row straight into CSR (Builder) —
// duplicate entries are summed — for fast products and sweeps. All
// routines are deterministic.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Builder assembles a CSR matrix in place, row by row. Entries arrive in
// row order — each Add's row is never below the previous one's — and are
// appended straight to the matrix's ColIdx and Val. Moving to a later row
// closes the open one inside its own tail of those slices: its entries are
// stable-sorted by column, equal columns are summed in insertion order, and
// exact-zero sums are dropped. No coordinate list is kept, and closing a
// row allocates nothing.
//
// The result is bit-identical to stable-sorting the same entries globally
// by (row, col) and summing each run of equal coordinates in order; the
// tests pin it against that reference.
type Builder struct {
	m   *CSR
	row int // the open row; every row before it is closed
}

// NewBuilder starts an empty rows×cols matrix. capacity pre-sizes ColIdx
// and Val for callers that know their entry count up front (generator
// assembly); a non-positive capacity allocates nothing.
func NewBuilder(rows, cols, capacity int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	if capacity > 0 {
		m.ColIdx = make([]int, 0, capacity)
		m.Val = make([]float64, 0, capacity)
	}
	return &Builder{m: m}
}

// Add accumulates v at (i, j). Zero values are kept (they may cancel
// later). i must not be below the row of the previous Add: entries arrive
// row by row, and a later row closes every row before it.
func (b *Builder) Add(i, j int, v float64) {
	m := b.m
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", i, j, m.Rows, m.Cols))
	}
	if i != b.row {
		if i < b.row {
			panic(fmt.Sprintf("sparse: entry (%d,%d) added after row %d", i, j, b.row))
		}
		b.closeRows(i)
	}
	m.ColIdx = append(m.ColIdx, j)
	m.Val = append(m.Val, v)
}

// CSR closes the open row and every row after it and returns the matrix.
// The Builder must not be used afterwards.
func (b *Builder) CSR() *CSR {
	b.closeRows(b.m.Rows)
	return b.m
}

// closeRows closes the open row — sort, sum duplicates, drop exact zeros,
// all in place — and every empty row after it, leaving row to open.
func (b *Builder) closeRows(to int) {
	m := b.m
	s := m.RowPtr[b.row]
	col, val := m.ColIdx[s:], m.Val[s:]
	sortRow(col, val)
	// w never passes the read position: each kept sum consumes at least
	// one entry.
	w := s
	for k := 0; k < len(col); {
		j := col[k]
		var v float64
		for ; k < len(col) && col[k] == j; k++ {
			v += val[k]
		}
		if v != 0 {
			m.ColIdx[w], m.Val[w] = j, v
			w++
		}
	}
	m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
	for ; b.row < to; b.row++ {
		m.RowPtr[b.row+1] = w
	}
}

// sortRow stable-sorts one row's entries by column, moving val alongside.
// An insertion sort: stable by construction, allocation-free, and linear
// on a row that is already sorted. Generator rows hold a handful of
// entries, so its quadratic worst case does not arise.
func sortRow[V any](col []int, val []V) {
	for i := 1; i < len(col); i++ {
		c, v := col[i], val[i]
		k := i - 1
		for ; k >= 0 && col[k] > c; k-- {
			col[k+1], val[k+1] = col[k], val[k]
		}
		col[k+1], val[k+1] = c, v
	}
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the value at (i, j) (zero if not stored). O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if idx < hi && m.ColIdx[idx] == j {
		return m.Val[idx]
	}
	return 0
}

// Row iterates the stored entries of row i, calling fn(col, val) for each.
func (m *CSR) Row(i int, fn func(j int, v float64)) {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		fn(m.ColIdx[k], m.Val[k])
	}
}

// MulVec computes y = A·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A·x into a caller-provided slice.
func (m *CSR) MulVecTo(y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// VecMul computes y = xᵀ·A (row vector times matrix), returning y.
func (m *CSR) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("sparse: VecMul dimension mismatch %d vs %d", len(x), m.Rows))
	}
	y := make([]float64, m.Cols)
	m.VecMulTo(y, x)
	return y
}

// VecMulTo computes y = xᵀ·A into a caller-provided slice (zeroed first).
func (m *CSR) VecMulTo(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		s, e := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.ColIdx[s:e], m.Val[s:e]
		vals = vals[:len(cols)]
		for k, j := range cols {
			y[j] += xi * vals[k]
		}
	}
}

// VecMulAccumScatter computes y = xᵀ·A for a sparse-support iterate by
// scattering only the rows in [lo, hi) of x (x must be zero outside that
// window, and y must be zero everywhere on entry), optionally fusing the
// uniformization accumulation acc += pw·x over the same window (pass
// acc == nil to skip it). It returns the conservative [ylo, yhi) column
// window that may now hold nonzeros, so the caller can keep propagating a
// point mass in O(support) instead of O(n) per term.
//
// The (i, k) accumulation order matches VecMulTo exactly — rows outside
// the window would have been skipped by its x[i] == 0 test anyway — so
// the output is bit-identical to the full scatter.
func (m *CSR) VecMulAccumScatter(y, x, acc []float64, pw float64, lo, hi int) (ylo, yhi int) {
	fuse := acc != nil && pw > 0
	ylo, yhi = m.Cols, 0
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		if fuse {
			acc[i] += pw * xi
		}
		s, e := m.RowPtr[i], m.RowPtr[i+1]
		if s < e {
			// Columns are ascending within a row, so the row's write window
			// is [first, last+1).
			if j := m.ColIdx[s]; j < ylo {
				ylo = j
			}
			if j := m.ColIdx[e-1]; j+1 > yhi {
				yhi = j + 1
			}
		}
		cols, vals := m.ColIdx[s:e], m.Val[s:e]
		vals = vals[:len(cols)]
		for k, j := range cols {
			y[j] += xi * vals[k]
		}
	}
	if ylo >= yhi {
		return 0, 0
	}
	return ylo, yhi
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	// Count entries per column of m.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	// RowPtr[j] serves as column j's insertion cursor, ending at the start
	// of column j+1; shifting the pointers back restores them.
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			pos := t.RowPtr[j]
			t.ColIdx[pos] = i
			t.Val[pos] = m.Val[k]
			t.RowPtr[j]++
		}
	}
	copy(t.RowPtr[1:], t.RowPtr[:t.Rows])
	t.RowPtr[0] = 0
	return t
}

// ToDense expands the matrix to a row-major dense slice-of-slices, intended
// for tests and small direct solves.
func (m *CSR) ToDense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// Diag returns the diagonal entries of the matrix as a vector. One linear
// pass over the stored entries (columns within a row are ascending, so the
// scan of each row stops at the first column past the diagonal) — O(nnz)
// total rather than a per-row binary search.
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	m.DiagInto(d)
	return d
}

// DiagInto fills d (length min(Rows, Cols)) with the diagonal entries,
// zeroing positions with no stored diagonal. The allocation-free twin of
// Diag for callers recycling scratch vectors.
func (m *CSR) DiagInto(d []float64) {
	clear(d)
	for i := range d {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if j := m.ColIdx[k]; j >= i {
				if j == i {
					d[i] = m.Val[k]
				}
				break
			}
		}
	}
}

// IterOptions configures the iterative solvers.
type IterOptions struct {
	MaxIter int     // maximum sweeps (default 10000)
	Tol     float64 // infinity-norm convergence tolerance (default 1e-12)
	// Scratch optionally recycles the solver's internal work vectors
	// (Gauss–Seidel's diagonal, PowerIteration's product buffer,
	// BiCGStab's Krylov vectors). Vectors a solver returns to its caller
	// are always freshly allocated, never scratch-owned. Nil means plain
	// allocation; contents and iteration counts are identical either way.
	Scratch *Scratch
	// Cancel, when non-nil, is polled before every sweep/iteration and
	// aborts the solve with its error when it returns non-nil. Callers
	// pass ctx.Err so cancellation reaches the iteration loop without
	// this package importing context; the partial IterResult (iterations
	// done, last residual) and best-so-far vector are still returned
	// alongside the error. A nil Cancel (or one returning nil) changes
	// nothing about the float sequence: runs are bit-identical.
	Cancel func() error
}

func (o IterOptions) withDefaults() IterOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	return o
}

// IterResult reports how an iterative solve terminated.
type IterResult struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// GaussSeidel solves A·x = b in place in x using forward Gauss–Seidel
// sweeps. The matrix must have nonzero diagonal entries.
func GaussSeidel(a *CSR, x, b []float64, opt IterOptions) (IterResult, error) {
	opt = opt.withDefaults()
	if a.Rows != a.Cols || len(x) != a.Rows || len(b) != a.Rows {
		return IterResult{}, fmt.Errorf("sparse: GaussSeidel dimension mismatch")
	}
	diag := opt.Scratch.Get(a.Rows)
	defer opt.Scratch.Put(diag)
	a.DiagInto(diag)
	for i, d := range diag {
		if d == 0 {
			return IterResult{}, fmt.Errorf("sparse: GaussSeidel zero diagonal at row %d", i)
		}
	}
	var res IterResult
	for it := 0; it < opt.MaxIter; it++ {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return res, err
			}
		}
		var delta float64
		for i := 0; i < a.Rows; i++ {
			s := b[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j != i {
					s -= a.Val[k] * x[j]
				}
			}
			nx := s / diag[i]
			if d := math.Abs(nx - x[i]); d > delta {
				delta = d
			}
			x[i] = nx
		}
		res.Iterations = it + 1
		res.Residual = delta
		if delta < opt.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// PowerIteration computes the fixed point x = xᵀ·P of a row-stochastic
// matrix P, starting from a uniform distribution. It renormalizes each
// step, so it also tolerates sub-stochastic matrices.
func PowerIteration(p *CSR, opt IterOptions) ([]float64, IterResult, error) {
	opt = opt.withDefaults()
	if p.Rows != p.Cols {
		return nil, IterResult{}, fmt.Errorf("sparse: PowerIteration needs square matrix")
	}
	n := p.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	y := opt.Scratch.Get(n)
	defer opt.Scratch.Put(y)
	var res IterResult
	for it := 0; it < opt.MaxIter; it++ {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return x, res, err
			}
		}
		p.VecMulTo(y, x)
		var sum float64
		for _, v := range y {
			sum += v
		}
		if sum == 0 {
			return nil, res, fmt.Errorf("sparse: PowerIteration collapsed to zero vector")
		}
		var delta float64
		for i := range y {
			y[i] /= sum
			if d := math.Abs(y[i] - x[i]); d > delta {
				delta = d
			}
		}
		copy(x, y)
		res.Iterations = it + 1
		res.Residual = delta
		if delta < opt.Tol {
			res.Converged = true
			return x, res, nil
		}
	}
	return x, res, nil
}

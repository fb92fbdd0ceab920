// Package sparse implements the compressed sparse row (CSR) matrix format
// and the iterative kernels (Gauss–Seidel, power iteration, BiCGStab) used
// to solve the large, sparse linear systems that arise from CTMC generator
// matrices.
//
// Matrices are assembled in coordinate (COO) form — duplicate entries are
// summed — and converted once to CSR for fast products and sweeps. All
// routines are deterministic.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is a single (row, col, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format accumulator for building sparse matrices.
// Entries with the same (row, col) are summed when converting to CSR.
type COO struct {
	Rows, Cols int
	entries    []Triplet
}

// NewCOO creates an empty rows×cols accumulator. An optional capacity hint
// pre-sizes the triplet slice so builders that know their entry count up
// front (generator assembly, uniformization) avoid re-growing it.
func NewCOO(rows, cols int, capacityHint ...int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	c := &COO{Rows: rows, Cols: cols}
	if len(capacityHint) > 0 && capacityHint[0] > 0 {
		c.entries = make([]Triplet, 0, capacityHint[0])
	}
	return c
}

// Add accumulates v at (i, j). Zero values are kept (they may cancel later).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", i, j, c.Rows, c.Cols))
	}
	c.entries = append(c.entries, Triplet{Row: i, Col: j, Val: v})
}

// NNZ returns the number of accumulated (pre-dedup) entries.
func (c *COO) NNZ() int { return len(c.entries) }

// ToCSR converts the accumulator to CSR, summing duplicates and dropping
// exact-zero results.
//
// Instead of a global O(nnz log nnz) comparison sort, entries are bucketed
// with a stable two-pass counting sort by row (O(nnz + rows)) and only each
// row's handful of entries is comparison-sorted by column. The resulting
// permutation — and therefore every duplicate-summation order and output
// bit — is identical to a global stable sort by (row, col).
func (c *COO) ToCSR() *CSR {
	nnz := len(c.entries)
	// Pass 1: count entries per row; prefix-sum into segment starts.
	start := make([]int, c.Rows+1)
	for i := range c.entries {
		start[c.entries[i].Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		start[i+1] += start[i]
	}
	// Pass 2: scatter into row segments, preserving insertion order.
	ents := make([]Triplet, nnz)
	next := make([]int, c.Rows)
	copy(next, start[:c.Rows])
	for _, e := range c.entries {
		ents[next[e.Row]] = e
		next[e.Row]++
	}
	m := &CSR{
		Rows: c.Rows, Cols: c.Cols,
		RowPtr: make([]int, c.Rows+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < c.Rows; i++ {
		seg := ents[start[i]:start[i+1]]
		sort.SliceStable(seg, func(a, b int) bool { return seg[a].Col < seg[b].Col })
		for k := 0; k < len(seg); {
			j := seg[k].Col
			var v float64
			for k < len(seg) && seg[k].Col == j {
				v += seg[k].Val
				k++
			}
			if v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
				m.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
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
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += xi * m.Val[k]
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
		for k := s; k < e; k++ {
			y[m.ColIdx[k]] += xi * m.Val[k]
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

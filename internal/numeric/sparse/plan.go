package sparse

import "fmt"

// Plan is a reusable partition of a matrix's rows into contiguous,
// nnz-balanced blocks for the parallel kernels. Planning costs a handful
// of binary searches, but the hot solve loops run one product per Poisson
// term — thousands per series — so callers compute the plan once per
// (matrix, workers) pair (ctmc.Chain memoizes them next to its operator
// caches) and reuse it for every product.
//
// Blocks whose rows hold no stored entries are split out of the dispatch
// list: they need only a memset of the output (plus the fused
// accumulation), so no goroutine is ever spawned or woken for them. The
// previous kernels dispatched those blocks like any other, which is how a
// matrix with a long empty tail burned workers on no-op goroutines.
type Plan struct {
	rows int
	// parts are the [lo, hi) row blocks with at least one stored entry,
	// in ascending row order. They are what Pool.Run fans out over.
	parts [][2]int
	// zero are the [lo, hi) row blocks containing only empty rows; the
	// kernels handle them inline.
	zero [][2]int
	// tiles, when non-nil, holds each part's entries regrouped into
	// column bands of TileCols columns (band-major, rows ascending within
	// a band), so the fused transpose product touches x one L2-resident
	// band at a time instead of streaming the whole vector per row. See
	// Plan.tile for the bit-identity argument.
	tiles [][]tileSeg
}

// tileSeg is one row's contiguous entry run [kLo, kHi) inside a column
// band. int32 keeps a segment at 12 bytes; matrices beyond 2^31 stored
// entries are far past what this solver stack addresses.
type tileSeg struct {
	row, kLo, kHi int32
}

// TileCols is the column-band width of the cache-blocked transpose
// kernel: each band of x spans at most TileCols float64s (32 KiB at the
// 4096 default — half a typical L2 per way, leaving room for y and the
// CSR streams). Plans tile only when the matrix is wide enough for at
// least two bands and parallel dispatch is in play; it is a variable so
// tests can force tiny matrices through the tiled path. Tiling changes
// memory access order only — outputs are bit-identical either way.
var TileCols = 4096

// NewPlan partitions m's rows into at most workers nnz-balanced blocks.
// Below ParallelNNZThreshold stored entries (or for workers <= 1) the
// plan is a single block, which the kernels execute inline — dispatch
// overhead would dominate the product itself. Wide parallel plans are
// additionally cache-blocked into column bands (see TileCols).
func NewPlan(m *CSR, workers int) *Plan {
	pl := newPlan(m.RowPtr, m.Rows, workers, ParallelNNZThreshold)
	if workers > 1 && m.Cols >= 2*TileCols && m.NNZ() >= ParallelNNZThreshold {
		pl.tile(m, TileCols)
	}
	return pl
}

func newPlan(rowPtr []int, rows, workers, minNNZ int) *Plan {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || rowPtr[rows] < minNNZ {
		return &Plan{rows: rows, parts: [][2]int{{0, rows}}}
	}
	bounds := nnzBalancedBounds(rowPtr, rows, workers)
	pl := &Plan{rows: rows}
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		if rowPtr[hi] == rowPtr[lo] {
			pl.zero = append(pl.zero, [2]int{lo, hi})
			continue
		}
		pl.parts = append(pl.parts, [2]int{lo, hi})
	}
	return pl
}

// tile regroups each part's entries into column bands of tc columns.
// Within a part the segments are band-major with rows ascending inside a
// band, and a row's runs across bands concatenate in ascending entry
// order — so the tiled kernel accumulates exactly the same terms into
// each y[i] in exactly the same order as the untiled row dot (partial
// sums pass through y[i] between bands, which is exact for float64), and
// the output is bit-identical. Only the order x is *read* in changes:
// one ≤tc-column band at a time, which stays L2-resident across all the
// part's rows instead of being streamed end-to-end per row.
func (pl *Plan) tile(m *CSR, tc int) {
	nBands := (m.Cols + tc - 1) / tc
	if nBands < 2 {
		return
	}
	pl.tiles = make([][]tileSeg, len(pl.parts))
	counts := make([]int, nBands+1)
	for p, part := range pl.parts {
		clear(counts)
		// Pass 1: count each band's segments (maximal same-band entry runs).
		for i := part[0]; i < part[1]; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; {
				band := m.ColIdx[k] / tc
				edge := (band + 1) * tc
				for k < m.RowPtr[i+1] && m.ColIdx[k] < edge {
					k++
				}
				counts[band+1]++
			}
		}
		for b := 0; b < nBands; b++ {
			counts[b+1] += counts[b]
		}
		segs := make([]tileSeg, counts[nBands])
		next := make([]int, nBands)
		copy(next, counts[:nBands])
		// Pass 2: place segments band-major; rows are visited ascending, so
		// each band's segment list is row-ascending by construction.
		for i := part[0]; i < part[1]; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; {
				band := m.ColIdx[k] / tc
				edge := (band + 1) * tc
				kLo := k
				for k < m.RowPtr[i+1] && m.ColIdx[k] < edge {
					k++
				}
				segs[next[band]] = tileSeg{row: int32(i), kLo: int32(kLo), kHi: int32(k)}
				next[band]++
			}
		}
		pl.tiles[p] = segs
	}
}

// NumParts returns the number of row blocks the plan dispatches to
// workers (empty-row blocks excluded).
func (pl *Plan) NumParts() int { return len(pl.parts) }

// Tiled reports whether the plan carries cache-blocked column bands.
func (pl *Plan) Tiled() bool { return pl.tiles != nil }

// VecMulAccumPlanT computes y = xᵀ·A given t = Aᵀ, dispatching the plan's
// row blocks on the pool, and optionally fuses the uniformization
// accumulation acc += pw·x into the same pass (pass acc == nil to skip
// it). Fusing halves the memory traffic of the transient power loop: each
// Poisson term makes one pass over the vectors instead of an AXPY pass
// followed by a product pass.
//
// Bit-identity contract: row j of t stores exactly the column-j entries
// of A in ascending row order and zero x terms are skipped, so every y[j]
// accumulates the same nonzero terms in the same order as the sequential
// scatter VecMulTo. The fused accumulation updates acc[i] elementwise —
// acc[i] += pw·x[i], skipping exact-zero x[i], which cannot change a bit
// because acc never holds a negative zero (it starts at +0 and += never
// produces -0 unless both operands are -0). Results are therefore
// bit-identical for any plan, pool, worker count, or dispatch path.
//
// A nil plan is planned on the spot; a nil or closed pool runs inline.
func VecMulAccumPlanT(t *CSR, y, x, acc []float64, pw float64, plan *Plan, pool *Pool) {
	if len(x) != t.Cols || len(y) != t.Rows {
		panic(fmt.Sprintf("sparse: VecMulAccumPlanT dimension mismatch (%d,%d) vs %dx%d", len(y), len(x), t.Rows, t.Cols))
	}
	fuse := acc != nil && pw > 0
	if acc != nil && (t.Rows != t.Cols || len(acc) != t.Rows) {
		panic(fmt.Sprintf("sparse: VecMulAccumPlanT fused accumulation needs a square system, got %dx%d acc %d", t.Rows, t.Cols, len(acc)))
	}
	if plan == nil {
		plan = NewPlan(t, 1)
	}
	dot := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if fuse {
				if xi := x[i]; xi != 0 {
					acc[i] += pw * xi
				}
			}
			var s float64
			for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
				if xv := x[t.ColIdx[k]]; xv != 0 {
					s += xv * t.Val[k]
				}
			}
			y[i] = s
		}
	}
	// Cache-blocked twin: same terms, same per-row order (bands ascending,
	// k ascending within a band, partial sums staged through y), but x is
	// read one column band at a time. Bit-identical to dot — pinned by the
	// Float64bits property battery in pool_test.go.
	dotTiled := func(part int) {
		lo, hi := plan.parts[part][0], plan.parts[part][1]
		if fuse {
			for i := lo; i < hi; i++ {
				if xi := x[i]; xi != 0 {
					acc[i] += pw * xi
				}
			}
		}
		clear(y[lo:hi])
		for _, sg := range plan.tiles[part] {
			s := y[sg.row]
			for k := sg.kLo; k < sg.kHi; k++ {
				if xv := x[t.ColIdx[k]]; xv != 0 {
					s += xv * t.Val[k]
				}
			}
			y[sg.row] = s
		}
	}
	runPart := func(w int) {
		if plan.tiles != nil {
			dotTiled(w)
			return
		}
		dot(plan.parts[w][0], plan.parts[w][1])
	}
	// Empty-row blocks: a memset plus the fused accumulation, inline —
	// never worth a worker wakeup.
	for _, z := range plan.zero {
		clear(y[z[0]:z[1]])
		if fuse {
			for i := z[0]; i < z[1]; i++ {
				if xi := x[i]; xi != 0 {
					acc[i] += pw * xi
				}
			}
		}
	}
	if len(plan.parts) == 1 {
		runPart(0)
		return
	}
	pool.Run(len(plan.parts), runPart)
}

// VecMulAccumScatter is the sequential twin of VecMulAccumPlanT for
// sparse-support iterates: it computes y = xᵀ·A by scattering only the
// rows in [lo, hi) of x (x must be zero outside that window, and y must
// be zero everywhere on entry), optionally fusing acc += pw·x over the
// same window. It returns the conservative [ylo, yhi) column window that
// may now hold nonzeros, so the caller can keep propagating a point mass
// in O(support) instead of O(n) per term.
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

// ActiveNNZ returns the number of stored entries in rows i of [lo, hi)
// with x[i] != 0 — the work a scatter product would actually do. The
// transient loop uses it to dispatch each term adaptively: a point mass
// whose support covers a sliver of the state space runs the O(support)
// scatter, a spread-out iterate runs the parallel transpose kernel. The
// scan stops as soon as the count reaches limit.
func (m *CSR) ActiveNNZ(x []float64, lo, hi, limit int) int {
	var active int
	for i := lo; i < hi; i++ {
		if x[i] != 0 {
			active += m.RowPtr[i+1] - m.RowPtr[i]
			if active >= limit {
				return active
			}
		}
	}
	return active
}

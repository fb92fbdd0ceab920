package sparse

import "fmt"

// AssemblyPlan is the symbolic half of a row assembly: for one row-ordered
// entry pattern, the stable by-column permutation of each row, the
// duplicate groups, and the output pattern a Builder fed those entries
// would produce, captured once so that assembling a matrix with the same
// pattern but new values is a pure O(nnz) gather — no sorting, no
// allocation churn. Sweeps that solve families of chains differing only
// in rate values (robustness perturbation studies, scalability sweeps)
// build the plan from the family's pattern and gather every member.
//
// Bit-identity contract: the slots replay the Builder's exact summation
// order — the per-row column sort is stable across equal columns, so
// duplicates sum in insertion order — and exact-zero sums are dropped the
// same way. Gather(vals) is therefore bit-identical to adding the pattern's
// entries with those values to a Builder.
type AssemblyPlan struct {
	rows, cols int
	// order holds input entry indices in stable (row, col) order: slot s
	// sums vals[order[k]] for k in [slotPtr[s], slotPtr[s+1]).
	order   []int32
	slotPtr []int32
	// slotCol[s] is the output column of slot s; slotRowPtr[i] ..
	// slotRowPtr[i+1] are the slots of row i. Together they are the
	// output pattern before zero-sum drops.
	slotCol    []int
	slotRowPtr []int
}

// NewAssemblyPlan plans the assembly of a rows×cols matrix from a
// row-ordered entry pattern: the entries of row i are the columns
// col[rowPtr[i]:rowPtr[i+1]], in the order a Builder would receive them.
// Neither slice is kept or modified. It panics on a rowPtr that does not
// partition col into rows rows and on an out-of-range column, as
// Builder.Add does.
func NewAssemblyPlan(rows, cols int, rowPtr, col []int) *AssemblyPlan {
	nnz := len(col)
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != nnz {
		panic(fmt.Sprintf("sparse: row pointers (%d of them, %d entries) do not partition a %dx%d pattern", len(rowPtr), nnz, rows, cols))
	}
	p := &AssemblyPlan{
		rows:       rows,
		cols:       cols,
		order:      make([]int32, nnz),
		slotPtr:    make([]int32, 1, nnz+1),
		slotCol:    make([]int, 0, nnz),
		slotRowPtr: make([]int, rows+1),
	}
	for k := range p.order {
		p.order[k] = int32(k)
	}
	var key []int // the open row's columns, sorted alongside its order
	for i := 0; i < rows; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		key = append(key[:0], col[s:e]...)
		sortRow(key, p.order[s:e])
		for k := 0; k < len(key); {
			j := key[k]
			if j < 0 || j >= cols {
				panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", i, j, rows, cols))
			}
			for k < len(key) && key[k] == j {
				k++
			}
			p.slotCol = append(p.slotCol, j)
			p.slotPtr = append(p.slotPtr, int32(s+k))
		}
		p.slotRowPtr[i+1] = len(p.slotCol)
	}
	return p
}

// NNZ returns the number of input entries the plan was built from.
func (p *AssemblyPlan) NNZ() int { return len(p.order) }

// Gather assembles a CSR from a value slice aligned with the plan's input
// entry order (vals[k] is the value of the pattern's k-th entry),
// bit-identical to adding those entries to a Builder. Only the length is
// checked.
func (p *AssemblyPlan) Gather(vals []float64) *CSR {
	if len(vals) != len(p.order) {
		panic(fmt.Sprintf("sparse: Gather got %d values for a %d-entry plan", len(vals), len(p.order)))
	}
	nSlots := len(p.slotCol)
	m := &CSR{
		Rows: p.rows, Cols: p.cols,
		RowPtr: make([]int, p.rows+1),
		ColIdx: make([]int, 0, nSlots),
		Val:    make([]float64, 0, nSlots),
	}
	for i := 0; i < p.rows; i++ {
		for s := p.slotRowPtr[i]; s < p.slotRowPtr[i+1]; s++ {
			if v := p.slotSum(s, vals); v != 0 {
				m.ColIdx = append(m.ColIdx, p.slotCol[s])
				m.Val = append(m.Val, v)
				m.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < p.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// Pattern returns the output pattern before zero-sum drops: the slots of
// row i are rowPtr[i] .. rowPtr[i+1], and slot s lands in column col[s]
// (ascending within a row). The slices are the plan's own and must not be
// modified.
func (p *AssemblyPlan) Pattern() (rowPtr, col []int) { return p.slotRowPtr, p.slotCol }

// SlotSums writes every slot's sum of vals into dst, summed in Gather's
// order, so dst[s] is bit-identical to the value Gather stores for slot s
// (or drops, when it is exactly zero). vals is aligned with the plan's
// input entry order, as for Gather; dst has one entry per slot.
func (p *AssemblyPlan) SlotSums(dst, vals []float64) {
	if len(vals) != len(p.order) || len(dst) != len(p.slotCol) {
		panic(fmt.Sprintf("sparse: SlotSums got %d values and %d slots for a %d-entry, %d-slot plan",
			len(vals), len(dst), len(p.order), len(p.slotCol)))
	}
	for s := range dst {
		dst[s] = p.slotSum(s, vals)
	}
}

// slotSum sums slot s's input entries in their stable insertion order —
// the Builder's duplicate-summation order.
func (p *AssemblyPlan) slotSum(s int, vals []float64) float64 {
	var v float64
	for k := p.slotPtr[s]; k < p.slotPtr[s+1]; k++ {
		v += vals[p.order[k]]
	}
	return v
}

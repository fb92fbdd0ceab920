package sparse

import "fmt"

// AssemblyPlan is the symbolic half of a COO→CSR conversion: the stable
// (row, col) sorting permutation, the duplicate groups, and the output
// pattern of ToCSR, captured once so that re-assembling a matrix with the
// same coordinate pattern but new values is a pure O(nnz) gather — no
// counting sort, no per-row comparison sort, no allocation churn. Sweeps
// that solve families of chains differing only in rate values (robustness
// perturbation studies, scalability sweeps) build the plan from the first
// member and reuse it for every other member.
//
// Cache-key contract: a plan is valid for exactly the coordinate sequence
// it was built from — the same (row, col) pairs in the same insertion
// order. Reassemble re-validates that contract on every call (an O(nnz)
// integer comparison, ~50× cheaper than a cold ToCSR) and returns an error
// on any mismatch, so a stale plan can never mis-assemble a matrix; callers
// then fall back to ToCSR and re-plan. Gather skips the validation for
// callers that construct the value slice from the plan's own pattern.
//
// Bit-identity contract: the slots replay ToCSR's exact summation order —
// the counting sort is stable within a row and the per-row column sort is
// stable across equal columns, so duplicates sum in insertion order — and
// exact-zero sums are dropped the same way. Reassemble(c) is therefore
// bit-identical to c.ToCSR() whenever it succeeds.
type AssemblyPlan struct {
	rows, cols int
	// protoRow/protoCol are the coordinate pattern in input entry order,
	// kept for Reassemble's validation pass.
	protoRow, protoCol []int32
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

// Plan captures the symbolic assembly of c: the permutation and duplicate
// structure a ToCSR of the current entries would use. The accumulator can
// keep growing afterwards; the plan simply stops matching it.
func (c *COO) Plan() *AssemblyPlan {
	nnz := len(c.entries)
	p := &AssemblyPlan{
		rows:     c.Rows,
		cols:     c.Cols,
		protoRow: make([]int32, nnz),
		protoCol: make([]int32, nnz),
		order:    make([]int32, nnz),
		slotPtr:  make([]int32, 1, nnz+1),
	}
	for i, e := range c.entries {
		p.protoRow[i] = int32(e.Row)
		p.protoCol[i] = int32(e.Col)
	}
	// Same stable two-pass counting sort as ToCSR, but over entry indices.
	start := make([]int, c.Rows+1)
	for i := range c.entries {
		start[c.entries[i].Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		start[i+1] += start[i]
	}
	next := make([]int, c.Rows)
	copy(next, start[:c.Rows])
	for i, e := range c.entries {
		p.order[next[e.Row]] = int32(i)
		next[e.Row]++
	}
	p.slotRowPtr = make([]int, c.Rows+1)
	p.slotCol = make([]int, 0, nnz)
	for i := 0; i < c.Rows; i++ {
		seg := p.order[start[i]:start[i+1]]
		stableSortByCol(seg, p.protoCol)
		for k := 0; k < len(seg); {
			j := p.protoCol[seg[k]]
			for k < len(seg) && p.protoCol[seg[k]] == j {
				k++
			}
			p.slotCol = append(p.slotCol, int(j))
			p.slotPtr = append(p.slotPtr, int32(start[i]+k))
			p.slotRowPtr[i+1]++
		}
	}
	for i := 0; i < c.Rows; i++ {
		p.slotRowPtr[i+1] += p.slotRowPtr[i]
	}
	return p
}

// stableSortByCol stable-sorts a row's entry indices by column. Rows of a
// generator matrix hold a handful of entries, so an insertion sort (stable
// by construction) beats sort.SliceStable's interface overhead while
// producing the identical permutation.
func stableSortByCol(seg []int32, col []int32) {
	for i := 1; i < len(seg); i++ {
		e := seg[i]
		c := col[e]
		j := i - 1
		for j >= 0 && col[seg[j]] > c {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = e
	}
}

// NNZ returns the number of input entries the plan was built from.
func (p *AssemblyPlan) NNZ() int { return len(p.order) }

// Matches reports whether c has exactly the coordinate pattern the plan
// was built from: same shape, same (row, col) pairs in the same insertion
// order. One linear integer pass.
func (p *AssemblyPlan) Matches(c *COO) bool {
	if c.Rows != p.rows || c.Cols != p.cols || len(c.entries) != len(p.order) {
		return false
	}
	for i, e := range c.entries {
		if int32(e.Row) != p.protoRow[i] || int32(e.Col) != p.protoCol[i] {
			return false
		}
	}
	return true
}

// Reassemble converts c to CSR using the memoized permutation, bit-identical
// to c.ToCSR(). It errors when c's coordinate pattern is not the one the
// plan was built from (the caller should fall back to ToCSR and re-plan).
func (p *AssemblyPlan) Reassemble(c *COO) (*CSR, error) {
	if !p.Matches(c) {
		return nil, fmt.Errorf("sparse: assembly plan pattern mismatch: plan %dx%d/%d entries vs matrix %dx%d/%d entries",
			p.rows, p.cols, len(p.order), c.Rows, c.Cols, len(c.entries))
	}
	vals := make([]float64, len(c.entries))
	for i, e := range c.entries {
		vals[i] = e.Val
	}
	return p.Gather(vals), nil
}

// Gather assembles a CSR directly from a value slice aligned with the
// plan's input entry order (vals[i] is the value of the i-th entry the
// plan was built from). No validation beyond the length check — callers
// that generate the values from the plan's own pattern (ctmc.ChainFamily)
// skip the coordinate replay entirely.
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
// ToCSR's duplicate-summation order.
func (p *AssemblyPlan) slotSum(s int, vals []float64) float64 {
	var v float64
	for k := p.slotPtr[s]; k < p.slotPtr[s+1]; k++ {
		v += vals[p.order[k]]
	}
	return v
}

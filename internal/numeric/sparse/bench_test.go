package sparse

// Tier-1 kernel benchmarks gated by `make bench-compare`: BenchmarkAssembleRows
// guards the row assembly of a generator, BenchmarkAssemblyReuse/gather
// the planned re-assembly of a family member, and BenchmarkVecMulScatter
// the left-multiply that the uniformization loop runs on.

import (
	"math"
	"testing"
)

// benchRows is the assembly benchmarks' pattern: nnz entries spread over an
// n×n band matrix, with ~10% duplicate coordinates so the dedup-sum path
// is exercised, grouped by row with each row's entries in generation order.
func benchRows(n, nnz int) *entries {
	byRow := make([][]int, n) // each row's entry numbers, ascending
	for k := 0; k < nnz; k++ {
		i := (k * 2654435761) % n
		byRow[i] = append(byRow[i], k)
	}
	e := &entries{rows: n, cols: n}
	for i, ks := range byRow {
		for _, k := range ks {
			j := (i + k%17) % n
			e.add(i, j, float64(k%9)+0.5)
			if k%10 == 0 {
				e.add(i, j, 0.25)
			}
		}
	}
	return e
}

// BenchmarkAssembleRows times one cold row assembly of the 20,000×200,000
// pattern: every entry added to a Builder in row order.
func BenchmarkAssembleRows(b *testing.B) {
	e := benchRows(20000, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.build().NNZ() == 0 {
			b.Fatal("empty CSR")
		}
	}
}

// BenchmarkAssemblyReuse/gather re-assembles the same pattern through its
// plan with new values: the per-member cost of a chain family.
func BenchmarkAssemblyReuse(b *testing.B) {
	e := benchRows(20000, 200000)
	plan := e.plan()
	vals := make([]float64, len(e.val))
	for i := range vals {
		vals[i] = float64(i%13) + 0.25
	}
	b.Run("gather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if plan.Gather(vals).NNZ() == 0 {
				b.Fatal("bad gather")
			}
		}
	})
}

// BenchmarkVecMulScatter times the full sequential scatter y = xᵀ·A
// (VecMulTo) on a 200k-state tridiagonal: the product a full-support
// uniformization term computes.
func BenchmarkVecMulScatter(b *testing.B) {
	n := 200000
	bld := NewBuilder(n, n, 3*n)
	for i := 0; i < n; i++ {
		bld.Add(i, i, 4)
		if i > 0 {
			bld.Add(i, i-1, -1)
		}
		if i < n-1 {
			bld.Add(i, i+1, -1)
		}
	}
	m := bld.CSR()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Abs(math.Sin(float64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecMulTo(y, x)
	}
}

package sparse

// Tier-1 kernel benchmarks gated by `make bench-compare`: BenchmarkToCSR
// guards the O(nnz) assembly path and BenchmarkVecMulParallel the
// transpose-backed left-multiply that the uniformization loop runs on.

import (
	"fmt"
	"math"
	"testing"
)

// benchCOO builds a COO with nnz entries spread over an n×n band matrix,
// with ~10% duplicate coordinates so the dedup-sum path is exercised.
func benchCOO(n, nnz int) *COO {
	c := NewCOO(n, n, nnz)
	for e := 0; e < nnz; e++ {
		i := (e * 2654435761) % n
		j := (i + e%17) % n
		c.Add(i, j, float64(e%9)+0.5)
		if e%10 == 0 {
			c.Add(i, j, 0.25)
		}
	}
	return c
}

func BenchmarkToCSR(b *testing.B) {
	c := benchCOO(20000, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := c.ToCSR()
		if m.NNZ() == 0 {
			b.Fatal("empty CSR")
		}
	}
}

// BenchmarkAssemblyReuse guards the symbolic/numeric assembly split on
// the same matrix as BenchmarkToCSR: `cold` re-runs the full counting
// sort per assembly, `planned` replays the memoized permutation
// (Reassemble validates the pattern; Gather skips even that). The
// acceptance bar is planned ≥ 5× faster than cold (docs/PERFORMANCE.md).
func BenchmarkAssemblyReuse(b *testing.B) {
	c := benchCOO(20000, 200000)
	plan := c.Plan()
	vals := make([]float64, c.NNZ())
	for i := range vals {
		vals[i] = float64(i%13) + 0.25
	}
	want := c.ToCSR().NNZ()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c.ToCSR().NNZ() != want {
				b.Fatal("bad assembly")
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := plan.Reassemble(c)
			if err != nil || m.NNZ() != want {
				b.Fatalf("bad reassembly: %v", err)
			}
		}
	})
	b.Run("gather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if plan.Gather(vals).NNZ() == 0 {
				b.Fatal("bad gather")
			}
		}
	})
}

func BenchmarkVecMulParallel(b *testing.B) {
	n := 200000
	c := NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	m := c.ToCSR()
	mt := m.Transpose()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Abs(math.Sin(float64(i)))
	}
	b.Run("scatter-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.VecMulTo(y, x)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		// The plan and pool are built once, outside the timed loop, the
		// way ctmc.Chain memoizes them: the caller runs one part itself,
		// so the pool holds workers-1 goroutines.
		plan := NewPlan(mt, workers)
		var pool *Pool
		if workers > 1 {
			pool = NewPool(workers - 1)
		}
		// "=" keeps the worker count out of benchcmp's GOMAXPROCS-suffix
		// normalization (which strips a trailing -N).
		b.Run(fmt.Sprintf("transpose-workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				VecMulAccumPlanT(mt, y, x, nil, 0, plan, pool)
			}
		})
		pool.Close()
	}
}

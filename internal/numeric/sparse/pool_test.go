package sparse

// Lifecycle, regression, and bit-identity property tests for the
// persistent worker pool and the nnz-balanced partition planner. The
// property battery forces tiny matrices down the parallel paths
// (ParallelNNZThreshold = 0) so every dispatch variant — pooled and
// inline — is exercised on the same inputs and compared bit for bit
// against the sequential scatter reference.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolRunsAllPartsExactlyOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, parts := range []int{0, 1, 2, 3, 7, 64} {
		counts := make([]int32, parts)
		p.Run(parts, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parts=%d: part %d ran %d times", parts, i, c)
			}
		}
	}
}

func TestPoolNilAndClosedRunInline(t *testing.T) {
	var nilPool *Pool
	var ran int32
	nilPool.Run(5, func(int) { atomic.AddInt32(&ran, 1) })
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5 parts", ran)
	}
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	ran = 0
	p.Run(5, func(int) { atomic.AddInt32(&ran, 1) })
	if ran != 5 {
		t.Fatalf("closed pool ran %d of 5 parts", ran)
	}
}

func TestPoolConcurrentRunHammer(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const goroutines = 16
	const rounds = 200
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p.Run(5, func(int) { atomic.AddInt64(&total, 1) })
			}
		}()
	}
	wg.Wait()
	if want := int64(goroutines * rounds * 5); total != want {
		t.Fatalf("concurrent runs executed %d parts, want %d", total, want)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (the runtime needs a moment to unwind exiting goroutines).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d never returned to baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(6)
	p.Run(8, func(int) {}) // lazily starts the workers
	if n := runtime.NumGoroutine(); n < base+6 {
		t.Fatalf("expected >= %d goroutines while pool runs, got %d", base+6, n)
	}
	p.Close()
	waitGoroutines(t, base)
}

func TestPoolCloseRacingRunStillRunsEveryPart(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := NewPool(3)
		p.Run(1, func(int) {}) // start the workers
		var ran int32
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(16, func(int) { atomic.AddInt32(&ran, 1) })
		}()
		p.Close()
		wg.Wait()
		if ran != 16 {
			t.Fatalf("round %d: Run racing Close executed %d of 16 parts", round, ran)
		}
	}
}

// TestPlanSkipsZeroNNZPartitions pins the fix for the latent equal-bounds
// bug: a single dense row swallows several per-worker quotas, leaving
// trailing partitions with zero stored entries that the old kernels still
// spawned goroutines for. The planner must route them to the inline
// zero-block list instead.
func TestPlanSkipsZeroNNZPartitions(t *testing.T) {
	n := 1000
	c := NewCOO(n, n, n)
	for j := 0; j < n; j++ {
		c.Add(0, j, float64(j)+1) // row 0 holds every entry, rows 1..n-1 empty
	}
	m := c.ToCSR()
	pl := newPlan(m.RowPtr, m.Rows, 8, 1)
	if got := pl.NumParts(); got != 1 {
		t.Fatalf("want 1 entry-bearing part, got %d (parts=%v)", got, pl.parts)
	}
	for _, pr := range pl.parts {
		if m.RowPtr[pr[1]] == m.RowPtr[pr[0]] {
			t.Fatalf("dispatch part %v has zero stored entries", pr)
		}
	}
	var zeroRows int
	for _, z := range pl.zero {
		zeroRows += z[1] - z[0]
	}
	if zeroRows != n-1 {
		t.Fatalf("zero blocks cover %d rows, want %d (zero=%v)", zeroRows, n-1, pl.zero)
	}
	// Every row is covered exactly once across both lists.
	covered := make([]bool, n)
	for _, blocks := range [][][2]int{pl.parts, pl.zero} {
		for _, blk := range blocks {
			for i := blk[0]; i < blk[1]; i++ {
				if covered[i] {
					t.Fatalf("row %d covered twice", i)
				}
				covered[i] = true
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("row %d not covered by any block", i)
		}
	}
}

func TestPlanBelowThresholdIsSequential(t *testing.T) {
	m := buildTestCSR()
	pl := NewPlan(m, 8) // tiny matrix: single inline block
	if pl.NumParts() != 1 || len(pl.zero) != 0 {
		t.Fatalf("expected sequential single-block plan, got parts=%v zero=%v", pl.parts, pl.zero)
	}
	// The inline block still computes the product: the kernel takes row
	// dots of the matrix it is handed, so passing m yields m·x exactly.
	pool := NewPool(7)
	defer pool.Close()
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	VecMulAccumPlanT(m, y, x, nil, 0, pl, pool)
	want := m.MulVec(x)
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("below-threshold product at %d = %g, want %g", i, y[i], want[i])
		}
	}
}

// singleDenseRowCSR builds a matrix whose first row alone exceeds every
// per-worker nonzero quota, so the balanced partition produces
// consecutive equal boundaries (empty worker blocks).
func singleDenseRowCSR(n int) *CSR {
	c := NewCOO(n, n, 2*n)
	for j := 0; j < n; j++ {
		c.Add(0, j, math.Sin(float64(j))+2)
	}
	for i := 1; i < n; i++ {
		c.Add(i, i, float64(i%5)+1)
	}
	return c.ToCSR()
}

// randomCSR builds a random n×n matrix from an LCG stream, mixing empty
// rows, a dense row, and negative values.
func randomCSR(s *uint64, n int) *CSR {
	next := func() float64 {
		*s = *s*6364136223846793005 + 1442695040888963407
		return float64(*s>>11) / (1 << 53)
	}
	c := NewCOO(n, n)
	denseRow := int(next() * float64(n))
	for i := 0; i < n; i++ {
		if i != denseRow && next() < 0.2 {
			continue // empty row
		}
		for j := 0; j < n; j++ {
			if i == denseRow || next() < 0.35 {
				c.Add(i, j, next()*4-2)
			}
		}
	}
	return c.ToCSR()
}

// TestVecMulAccumPlanTBitIdenticalProperty is the pool property battery:
// on random matrices (empty rows, a dense row, down to 1×1) the fused
// plan kernel must match the sequential scatter + separate AXPY reference
// bit for bit, across worker counts {1,2,4,8}, pooled and direct
// dispatch, fused and unfused.
func TestVecMulAccumPlanTBitIdenticalProperty(t *testing.T) {
	saved := ParallelNNZThreshold
	ParallelNNZThreshold = 0 // force tiny matrices down the parallel paths
	defer func() { ParallelNNZThreshold = saved }()
	savedTile := TileCols
	defer func() { TileCols = savedTile }()

	pool := NewPool(4)
	defer pool.Close()

	// check runs the kernel on m's transpose against the sequential
	// scatter reference, for every worker count, plan shape and dispatch.
	check := func(m *CSR, s *uint64) bool {
		n := m.Rows
		mt := m.Transpose()
		x := make([]float64, n)
		acc0 := make([]float64, n)
		for i := range x {
			*s = *s*6364136223846793005 + 1442695040888963407
			x[i] = float64(*s>>11)/(1<<52) - 1
			if i%5 == 0 {
				x[i] = 0
			}
			*s = *s*6364136223846793005 + 1442695040888963407
			acc0[i] = float64(*s >> 12)
		}
		pw := 0.375 // exact in binary, keeps the reference comparison honest

		// Reference: sequential scatter, then the accumulation by itself.
		want := make([]float64, n)
		m.VecMulTo(want, x)
		wantAcc := append([]float64(nil), acc0...)
		for i := range wantAcc {
			if x[i] != 0 {
				wantAcc[i] += pw * x[i]
			}
		}

		for _, workers := range []int{1, 2, 4, 8} {
			// Untiled and cache-blocked plans must agree bit for bit; a
			// 3-column band forces multiple tiles on these tiny matrices.
			TileCols = 1 << 30
			planFlat := NewPlan(mt, workers)
			TileCols = 3
			planTiled := NewPlan(mt, workers)
			TileCols = savedTile
			if workers > 1 && n >= 6 && !planTiled.Tiled() {
				t.Logf("n=%d workers=%d: expected a tiled plan", n, workers)
				return false
			}
			for _, plan := range []*Plan{planFlat, planTiled} {
				for _, pl := range []*Pool{nil, pool} { // inline vs pooled
					got := make([]float64, n)
					acc := append([]float64(nil), acc0...)
					VecMulAccumPlanT(mt, got, x, acc, pw, plan, pl)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Logf("workers=%d pooled=%v: y[%d] %x vs %x", workers, pl != nil, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							return false
						}
						if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
							t.Logf("workers=%d pooled=%v: acc[%d] %x vs %x", workers, pl != nil, i, math.Float64bits(acc[i]), math.Float64bits(wantAcc[i]))
							return false
						}
					}
					// Unfused: acc untouched, y identical.
					got2 := make([]float64, n)
					VecMulAccumPlanT(mt, got2, x, nil, 0, plan, pl)
					for i := range want {
						if math.Float64bits(got2[i]) != math.Float64bits(want[i]) {
							return false
						}
					}
				}
			}
		}
		return true
	}

	f := func(seed int64) bool {
		s := uint64(seed)
		n := 1 + int(s%29) // includes the 1×1 edge case
		return check(randomCSR(&s, n), &s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// A single dense row swallows several per-worker quotas, so the plan
	// sees equal partition bounds (empty blocks). The transpose of a
	// dense-row matrix puts that row in front of the kernel; the matrix
	// itself puts it in the reference scatter.
	dense := singleDenseRowCSR(200)
	bounds := nnzBalancedBounds(dense.RowPtr, dense.Rows, 8)
	equal := false
	for w := 1; w < len(bounds); w++ {
		equal = equal || bounds[w] == bounds[w-1]
	}
	if !equal {
		t.Fatalf("dense row did not produce equal bounds %v; the case is not exercised", bounds)
	}
	s := uint64(7)
	for _, m := range []*CSR{dense.Transpose(), dense} {
		if !check(m, &s) {
			t.Error("single dense row: plan kernel differs from the scatter reference")
		}
	}
}

func TestVecMulAccumScatterMatchesFullScatter(t *testing.T) {
	s := uint64(42)
	for round := 0; round < 50; round++ {
		n := 1 + int(s%37)
		m := randomCSR(&s, n)
		x := make([]float64, n)
		lo, hi := n/3, n-n/4 // support window; zero outside
		if lo >= hi {
			lo, hi = 0, n
		}
		for i := lo; i < hi; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			if i%3 != 0 {
				x[i] = float64(s>>11)/(1<<52) - 1
			}
		}
		want := make([]float64, n)
		m.VecMulTo(want, x)
		wantAcc := make([]float64, n)
		for i := range wantAcc {
			if x[i] != 0 {
				wantAcc[i] += 0.25 * x[i]
			}
		}
		got := make([]float64, n)
		acc := make([]float64, n)
		ylo, yhi := m.VecMulAccumScatter(got, x, acc, 0.25, lo, hi)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: y[%d] = %g, want %g", round, i, got[i], want[i])
			}
			if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
				t.Fatalf("round %d: acc[%d] = %g, want %g", round, i, acc[i], wantAcc[i])
			}
			// The returned window must bound every nonzero of y.
			if got[i] != 0 && (i < ylo || i >= yhi) {
				t.Fatalf("round %d: nonzero y[%d] outside window [%d,%d)", round, i, ylo, yhi)
			}
		}
	}
}

func TestActiveNNZCountsOnlyLiveRows(t *testing.T) {
	m := buildTestCSR() // 3×3, rows with 2/1/2 entries
	x := []float64{1, 0, 2}
	if got := m.ActiveNNZ(x, 0, 3, 1<<30); got != 4 {
		t.Fatalf("ActiveNNZ = %d, want 4 (rows 0 and 2)", got)
	}
	if got := m.ActiveNNZ(x, 0, 3, 3); got < 3 {
		t.Fatalf("limited ActiveNNZ = %d, want early-out >= 3", got)
	}
	if got := m.ActiveNNZ(x, 1, 2, 1<<30); got != 0 {
		t.Fatalf("windowed ActiveNNZ = %d, want 0", got)
	}
}

func TestPoolSizeClamp(t *testing.T) {
	if got := NewPool(-3).Size(); got != 1 {
		t.Fatalf("NewPool(-3).Size() = %d, want clamp to 1", got)
	}
	var nilPool *Pool
	if got := nilPool.Size(); got != 0 {
		t.Fatalf("nil pool Size() = %d, want 0", got)
	}
}

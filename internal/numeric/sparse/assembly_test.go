package sparse

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestAssemblyPlanReassembleBitIdentical is the plan's property pin: a
// plan built from one row-ordered pattern must reassemble every member of
// that pattern — randomized value sets with duplicates, exact zeros, and
// cancellations that drop entries from the output — bit-identically to a
// Builder fed the same entries and to the global stable-sort reference.
func TestAssemblyPlanReassembleBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		next := lcg(seed)
		e := randomRows(next)
		plan := e.plan()
		// The source values, then several re-valued members — one with a
		// forced exact cancellation so a slot drops out of the pattern.
		members := [][]float64{e.val}
		for m := 0; m < 3; m++ {
			vals := make([]float64, len(e.val))
			for k := range vals {
				if vals[k] = next()*4 - 2; next() < 0.15 {
					vals[k] = 0
				}
			}
			members = append(members, vals)
		}
		cancel := make([]float64, len(e.val))
		for k := range cancel {
			cancel[k] = next() * 2
			if k%2 == 1 && e.row[k-1] == e.row[k] && e.col[k-1] == e.col[k] {
				cancel[k] = -cancel[k-1] // exact pairwise cancellation
			}
		}
		members = append(members, cancel)
		for mi, vals := range members {
			got := plan.Gather(vals)
			if !csrEqual(got, e.buildVals(vals)) {
				t.Logf("member %d: gather differs from the Builder", mi)
				return false
			}
			member := &entries{rows: e.rows, cols: e.cols, row: e.row, col: e.col, val: vals}
			if !csrEqual(got, referenceToCSR(member)) {
				t.Logf("member %d: gather differs from stable-sort reference", mi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAssemblyPlanGatherMatchesBuilder(t *testing.T) {
	e := &entries{rows: 4, cols: 4}
	coords := [][2]int{{0, 0}, {0, 0}, {1, 2}, {1, 2}, {2, 3}, {3, 1}}
	vals := []float64{0.5, 1.25, 2, -2, 0, 7} // slot (1,2) cancels exactly
	for k, ij := range coords {
		e.add(ij[0], ij[1], vals[k])
	}
	plan := e.plan()
	got := plan.Gather(vals)
	if !csrEqual(got, e.build()) {
		t.Fatal("Gather differs from the Builder")
	}
	if got.At(1, 2) != 0 || got.NNZ() != 2 {
		t.Fatalf("cancelled slot not dropped: nnz=%d", got.NNZ())
	}
	if plan.NNZ() != len(coords) {
		t.Fatalf("NNZ() = %d, want %d", plan.NNZ(), len(coords))
	}

	// The slot view keeps what Gather drops: four slots, one per distinct
	// coordinate, with the cancelled and the zero slot as explicit zeros.
	rowPtr, col := plan.Pattern()
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(rowPtr, want) {
		t.Fatalf("Pattern rowPtr = %v, want %v", rowPtr, want)
	}
	if want := []int{0, 2, 3, 1}; !reflect.DeepEqual(col, want) {
		t.Fatalf("Pattern col = %v, want %v", col, want)
	}
	checkSlotSums(t, plan, vals, got)
}

// checkSlotSums checks that every slot sum of vals is bit-identical to the
// value Gather stored for it, or exactly zero where Gather dropped it.
func checkSlotSums(t *testing.T, plan *AssemblyPlan, vals []float64, gathered *CSR) {
	t.Helper()
	rowPtr, col := plan.Pattern()
	sums := make([]float64, len(col))
	plan.SlotSums(sums, vals)
	for i := 0; i+1 < len(rowPtr); i++ {
		for s := rowPtr[i]; s < rowPtr[i+1]; s++ {
			if got := gathered.At(i, col[s]); math.Float64bits(sums[s]) != math.Float64bits(got) && !(sums[s] == 0 && got == 0) {
				t.Fatalf("slot (%d,%d) = %g, Gather stored %g", i, col[s], sums[s], got)
			}
		}
	}
}

// decodeRows reads a row-ordered entry list from fuzz input: two bytes of
// shape (1–16 rows and columns), then one entry per three bytes — a row
// step (0 stays in the row; a larger step leaves the rows it skips
// empty), a column, and a value code. The codes produce exact zeros, −0,
// negations of the previous value (an exact cancellation when the
// coordinate repeats), values with long mantissas, self-loops, and a
// generator diagonal: minus the row's sum so far, at the row's own column.
func decodeRows(data []byte) *entries {
	if len(data) < 2 {
		return nil
	}
	e := &entries{rows: 1 + int(data[0]%16), cols: 1 + int(data[1]%16)}
	row, rowSum, prev := 0, 0.0, 0.0
	for k := 2; k+2 < len(data); k += 3 {
		if step := int(data[k] % 4); step > 0 {
			row, rowSum = row+step, 0
		}
		if row >= e.rows {
			break
		}
		j, code := int(data[k+1])%e.cols, data[k+2]
		mag := float64(code>>3) + 1
		var v float64
		switch code % 8 {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = -prev
		case 3:
			v = mag / 3
		case 4:
			v = -mag * 0.1
		case 5:
			v = mag * 1e16 // absorbs small addends: its sums depend on their order
		case 6:
			j, v = row%e.cols, mag*0.37 // self-loop beside the diagonal
		case 7:
			j, v = row%e.cols, -rowSum // the generator diagonal
		}
		e.add(row, j, v)
		rowSum += v
		prev = v
	}
	return e
}

// FuzzAssembleRows is the row assembly's bit-identity oracle: for any
// row-ordered entry list, the Builder and the gather of a plan built from
// the same pattern equal the global stable-sort reference bit for bit,
// with the values as given and reversed; and an entry outside the matrix
// panics in both.
func FuzzAssembleRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e := decodeRows(data)
		if e == nil {
			return
		}
		want := referenceToCSR(e)
		if got := e.build(); !csrEqual(got, want) {
			t.Fatalf("Builder differs from the stable-sort reference:\ngot  %+v\nwant %+v", got, want)
		}
		plan := e.plan()
		got := plan.Gather(e.val)
		if !csrEqual(got, want) {
			t.Fatalf("plan gather differs from the stable-sort reference:\ngot  %+v\nwant %+v", got, want)
		}
		checkSlotSums(t, plan, e.val, got)
		rev := make([]float64, len(e.val))
		for k, v := range e.val {
			rev[len(rev)-1-k] = v
		}
		member := &entries{rows: e.rows, cols: e.cols, row: e.row, col: e.col, val: rev}
		if want, got := referenceToCSR(member), plan.Gather(rev); !csrEqual(got, want) || !csrEqual(e.buildVals(rev), want) {
			t.Fatal("a re-valued member differs from the stable-sort reference")
		}

		over := int(data[0] >> 4) // how far outside the matrix
		mustPanic := func(name string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}
		mustPanic("row past the end", func() { NewBuilder(e.rows, e.cols, 0).Add(e.rows+over, 0, 1) })
		mustPanic("negative row", func() { NewBuilder(e.rows, e.cols, 0).Add(-1-over, 0, 1) })
		mustPanic("column past the end", func() { NewBuilder(e.rows, e.cols, 0).Add(0, e.cols+over, 1) })
		mustPanic("negative column", func() { NewBuilder(e.rows, e.cols, 0).Add(0, -1-over, 1) })
		if len(e.col) > 0 {
			bad := append([]int(nil), e.col...)
			bad[len(bad)-1] = e.cols + over
			mustPanic("plan column past the end", func() {
				(&entries{rows: e.rows, cols: e.cols, row: e.row, col: bad, val: e.val}).plan()
			})
		}
	})
}

// TestScratchCutsSolverAllocations is the satellite allocs/op regression
// pin: with a warmed Scratch the iterative solvers must allocate strictly
// less per call than without one.
func TestScratchCutsSolverAllocations(t *testing.T) {
	n := 64
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
	a := bld.CSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	x := make([]float64, n)
	measure := func(name string, scr *Scratch, solve func(opt IterOptions)) (with, without float64) {
		solve(IterOptions{Scratch: scr}) // warm the scratch pool
		with = testing.AllocsPerRun(10, func() { solve(IterOptions{Scratch: scr}) })
		without = testing.AllocsPerRun(10, func() { solve(IterOptions{}) })
		if with >= without {
			t.Errorf("%s: %v allocs with scratch, %v without — scratch saves nothing", name, with, without)
		}
		return
	}
	measure("GaussSeidel", &Scratch{}, func(opt IterOptions) {
		opt.MaxIter = 30
		clear(x)
		if _, err := GaussSeidel(a, x, b, opt); err != nil {
			t.Fatal(err)
		}
	})
	diag := a.Diag()
	measure("BiCGStab", &Scratch{}, func(opt IterOptions) {
		opt.MaxIter = 30
		clear(x)
		if _, err := BiCGStab(a.MulVecTo, x, b, diag, opt); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScratchNilAndReuse(t *testing.T) {
	var nilScratch *Scratch
	v := nilScratch.Get(5)
	if len(v) != 5 {
		t.Fatalf("nil scratch Get: len %d", len(v))
	}
	nilScratch.Put(v) // must not panic

	s := &Scratch{}
	a := s.Get(10)
	s.Put(a)
	b := s.Get(8) // smaller fits in the released buffer
	if cap(b) < 10 {
		t.Fatalf("expected reuse of the 10-cap buffer, got cap %d", cap(b))
	}
	c := s.Get(8) // pool empty again: fresh allocation
	if &b[0] == &c[0] {
		t.Fatal("second Get returned the checked-out buffer")
	}
}

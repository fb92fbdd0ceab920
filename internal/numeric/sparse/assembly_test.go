package sparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// patternCOO rebuilds a COO with the same coordinate pattern as c but
// fresh values from next, including exact zeros (dropped only if the
// whole slot cancels) so the zero-sum drop path is exercised.
func patternCOO(c *COO, next func() float64) *COO {
	c2 := NewCOO(c.Rows, c.Cols, len(c.entries))
	for _, e := range c.entries {
		v := next()*4 - 2
		if next() < 0.15 {
			v = 0
		}
		c2.Add(e.Row, e.Col, v)
	}
	return c2
}

// TestAssemblyPlanReassembleBitIdentical is the satellite property pin:
// a plan built from one member of a same-pattern family must reassemble
// every other member bit-identically to a fresh ToCSR (itself pinned to
// the global stable sort by TestToCSRMatchesStableSortReference) —
// including randomized value sets with duplicates, exact zeros, and
// cancellations that drop entries from the output.
func TestAssemblyPlanReassembleBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		rows, cols := 1+int(next()*20), 1+int(next()*20)
		c := NewCOO(rows, cols)
		n := int(next() * 200)
		for e := 0; e < n; e++ {
			i, j := int(next()*float64(rows)), int(next()*float64(cols))
			c.Add(i, j, next()*4-2)
			if next() < 0.2 {
				c.Add(i, j, next()*4-2) // duplicate coordinate
			}
		}
		plan := c.Plan()
		if !plan.Matches(c) {
			t.Log("plan does not match its own source")
			return false
		}
		// The source itself, then several re-valued members — one with a
		// forced exact cancellation so a slot drops out of the pattern.
		members := []*COO{c}
		for m := 0; m < 3; m++ {
			members = append(members, patternCOO(c, next))
		}
		if n > 0 {
			cancel := NewCOO(rows, cols, len(c.entries))
			for k, e := range c.entries {
				v := next() * 2
				if k%2 == 1 && cancel.entries[k-1].Row == e.Row && cancel.entries[k-1].Col == e.Col {
					v = -cancel.entries[k-1].Val // exact pairwise cancellation
				}
				cancel.Add(e.Row, e.Col, v)
			}
			members = append(members, cancel)
		}
		for mi, m := range members {
			got, err := plan.Reassemble(m)
			if err != nil {
				t.Logf("member %d: %v", mi, err)
				return false
			}
			if !csrEqual(got, m.ToCSR()) {
				t.Logf("member %d: reassembly differs from ToCSR", mi)
				return false
			}
			if !csrEqual(got, referenceToCSR(m)) {
				t.Logf("member %d: reassembly differs from stable-sort reference", mi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAssemblyPlanRejectsPatternMismatch(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 1, 1)
	c.Add(2, 0, 2)
	c.Add(0, 1, 3)
	plan := c.Plan()

	swapped := NewCOO(3, 3)
	swapped.Add(2, 0, 1) // same coordinate set, different insertion order
	swapped.Add(0, 1, 2)
	swapped.Add(0, 1, 3)
	extra := NewCOO(3, 3)
	extra.Add(0, 1, 1)
	extra.Add(2, 0, 2)
	extra.Add(0, 1, 3)
	extra.Add(1, 1, 4)
	shape := NewCOO(4, 3)
	shape.Add(0, 1, 1)
	shape.Add(2, 0, 2)
	shape.Add(0, 1, 3)
	for name, bad := range map[string]*COO{"order": swapped, "extra": extra, "shape": shape} {
		if plan.Matches(bad) {
			t.Errorf("%s: Matches = true, want false", name)
		}
		if _, err := plan.Reassemble(bad); err == nil {
			t.Errorf("%s: Reassemble accepted a mismatched pattern", name)
		} else if !strings.Contains(err.Error(), "pattern mismatch") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	// The real pattern still works after the rejections.
	if _, err := plan.Reassemble(c); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblyPlanGatherMatchesReassemble(t *testing.T) {
	c := NewCOO(4, 4)
	coords := [][2]int{{0, 0}, {1, 2}, {1, 2}, {3, 1}, {2, 3}, {0, 0}}
	for _, ij := range coords {
		c.Add(ij[0], ij[1], 1)
	}
	plan := c.Plan()
	vals := []float64{0.5, 2, -2, 7, 0, 1.25} // slot (1,2) cancels exactly
	c2 := NewCOO(4, 4)
	for k, ij := range coords {
		c2.Add(ij[0], ij[1], vals[k])
	}
	want, err := plan.Reassemble(c2)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Gather(vals)
	if !csrEqual(got, want) {
		t.Fatal("Gather differs from Reassemble")
	}
	if got.At(1, 2) != 0 || got.NNZ() != 2 {
		t.Fatalf("cancelled slot not dropped: nnz=%d", got.NNZ())
	}
	if plan.NNZ() != len(coords) {
		t.Fatalf("NNZ() = %d, want %d", plan.NNZ(), len(coords))
	}
}

// TestScratchCutsSolverAllocations is the satellite allocs/op regression
// pin: with a warmed Scratch the iterative solvers must allocate strictly
// less per call than without one.
func TestScratchCutsSolverAllocations(t *testing.T) {
	n := 64
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	a := c.ToCSR()
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

package pepa

import (
	"slices"
	"testing"
)

// FuzzParse checks that the parser never panics, that successful parses
// reach the print/parse fixpoint, and that the printed model parses back
// to the same shape: equal strings alone would pass a printer that
// renders two different terms alike. The seed corpus covers every
// syntactic construct; `go test` runs the seeds, `go test -fuzz=FuzzParse`
// explores.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"P = (a, 1).P; P",
		"r = 1.5; P = (work, r).P1; P1 = (rest, 2*r).P; P",
		"P = (a, T).P; Q = (a, 2).Q; P <a> Q",
		"P = (a,1).P + (b,2).P; (P || P)/{a}",
		"P = (a, 1).(b, 2).P; P",
		"% comment\nP = (a, 1).P; P",
		"/* block */ P = (a, infty).P; Q = (a, 1).Q; P <a> Q",
		"P = (a, 1).P; P <a,b,c> P",
		"x = 1 + 2 * (3 - 4) / 5; P = (a, x + 6).P; P",
		"P = (a, 1).P Q",
		"P = ;",
		"p = (a,1).p; p",
		"P = (a,1).P; P/{}",
		"((((P))))",
		"P = (a, 2*T).P; Q = (a, 1).Q; P <a> Q",
		"P = (a,1).P; P <a> (P <b> P)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := m.String()
		m2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted unparsable output: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		if m2.String() != printed {
			t.Fatalf("print/parse not a fixpoint\ninput: %q\nfirst:\n%s\nsecond:\n%s", src, printed, m2.String())
		}
		if m.System != nil && !sameShape(m.System, m2.System) {
			t.Fatalf("reparsed system changed shape\ninput: %q\nprinted:\n%s", src, printed)
		}
		for _, name := range m.DefOrder {
			if !sameShape(m.Defs[name].Body, m2.Defs[name].Body) {
				t.Fatalf("reparsed definition of %s changed shape\ninput: %q\nprinted:\n%s", name, src, printed)
			}
		}
		// Static checks must not panic either.
		_ = Check(m)
	})
}

// sameShape reports whether two terms have the same node kinds, names and
// cooperation and hiding sets at every position. Choice chains compare
// flattened: the printer writes a chain flat, which is sound because both
// nestings of a chain derive the same transitions in the same order.
func sameShape(a, b Process) bool {
	switch x := a.(type) {
	case *Prefix:
		y, ok := b.(*Prefix)
		return ok && x.Action == y.Action && sameShape(x.Cont, y.Cont)
	case *Choice:
		y, ok := b.(*Choice)
		if !ok {
			return false
		}
		xs, ys := choiceOperands(nil, x), choiceOperands(nil, y)
		return slices.EqualFunc(xs, ys, sameShape)
	case *Coop:
		y, ok := b.(*Coop)
		return ok && slices.Equal(x.Set, y.Set) && sameShape(x.Left, y.Left) && sameShape(x.Right, y.Right)
	case *Hide:
		y, ok := b.(*Hide)
		return ok && slices.Equal(x.Set, y.Set) && sameShape(x.Proc, y.Proc)
	case *Const:
		y, ok := b.(*Const)
		return ok && x.Name == y.Name
	}
	return false
}

// choiceOperands appends the operands of a choice chain, in order.
func choiceOperands(dst []Process, p Process) []Process {
	if c, ok := p.(*Choice); ok {
		return choiceOperands(choiceOperands(dst, c.Left), c.Right)
	}
	return append(dst, p)
}

package derive_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

// FuzzExplore checks derivation against itself one step at a time: any
// state of a model that passes pepa.Check, read back as the system
// equation, must derive exactly that state's activities — action, rate
// bits and rate source, in order — to states with exactly the same
// strings, in plain and in aggregated derivation. A state string that
// loses structure, a renderer that disagrees with pepa.AppendString, or a
// derivation that depends on how a state was reached fails here.
func FuzzExplore(f *testing.F) {
	for i, sm := range shapeModels {
		f.Add(sm.src, uint16(3*i))
	}
	for i, src := range []string{core.SimplePEPAModel, core.ActiveBadgeModel, core.AlternatingBitModel, core.PCLAN4Model, pclanSource(3)} {
		f.Add(src, uint16(5*i+1))
	}
	f.Fuzz(func(t *testing.T, src string, pick uint16) {
		m, err := pepa.Parse(src)
		if err != nil || pepa.Check(m).Err() != nil {
			return
		}
		for _, aggregate := range []bool{false, true} {
			opt := derive.Options{MaxStates: 64, Aggregate: aggregate}
			ss, err := derive.Explore(m, opt)
			if err != nil {
				continue // too large, unresolved passive rates, ...
			}
			s := int(pick) % ss.NumStates()
			term, err := pepa.Parse(ss.States[s])
			if err != nil {
				t.Fatalf("aggregate=%t: state %q does not parse: %v", aggregate, ss.States[s], err)
			}
			sm := m.Clone()
			sm.System = term.System
			w, err := derive.NewWalker(sm, derive.Options{Aggregate: aggregate})
			if err != nil {
				t.Fatalf("aggregate=%t: state %q does not compile: %v", aggregate, ss.States[s], err)
			}
			if w.State(0) != ss.States[s] {
				t.Fatalf("aggregate=%t: state %q renders back as %q", aggregate, ss.States[s], w.State(0))
			}
			trs, err := w.Transitions(0)
			if err != nil {
				t.Fatalf("aggregate=%t: state %q: %v", aggregate, ss.States[s], err)
			}
			want := ss.Trans[s]
			if len(trs) != len(want) {
				t.Fatalf("aggregate=%t: state %q derives %d activities, %d when explored", aggregate, ss.States[s], len(trs), len(want))
			}
			for i, tr := range trs {
				a := want[i]
				if tr.Action != a.Action || tr.Rate.Passive || math.Float64bits(tr.Rate.Value) != math.Float64bits(a.Rate) || tr.Src != a.Src {
					t.Fatalf("aggregate=%t: state %q activity %d = (%s, %v, %+v), explored (%s, %v, %+v)",
						aggregate, ss.States[s], i, tr.Action, tr.Rate, tr.Src, a.Action, a.Rate, a.Src)
				}
				to, err := w.Target(0, tr)
				if err != nil {
					t.Fatal(err)
				}
				if w.State(to) != ss.States[a.To] {
					t.Fatalf("aggregate=%t: state %q activity %d leads to %q, explored %q",
						aggregate, ss.States[s], i, w.State(to), ss.States[a.To])
				}
			}
		}
	})
}

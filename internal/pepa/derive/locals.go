package derive

import (
	"fmt"
	"slices"

	"repro/internal/pepa"
)

// Locals is the local-derivative table of a model's sequential
// components: every sequential term reachable from its seeds by single
// activities, numbered in breadth-first discovery order (the seeds first,
// deduplicated), with each term's transitions in the order the SOS rules
// derive them. PEPA's two-level grammar makes a sequential component's
// derivatives sequential again, so the table is closed, and derivation
// of a whole model only ever combines rows of it. Explore compiles one
// table for all of a model's leaves; gpepa compiles one per group.
type Locals struct {
	// States holds each local derivative's canonical syntax
	// (pepa.AppendString); the index is the local state id.
	States []string
	// Trans[s] lists the transitions of local state s: a prefix derives
	// one, a choice its operands' in order, a constant its definition's.
	Trans [][]LocalTransition

	model   *pepa.Model
	index   map[string]int32
	terms   []pepa.Process
	kinds   []termKind
	actions []string
	actID   map[string]int32
	buf     []byte
}

// LocalTransition is one activity of a sequential term.
type LocalTransition struct {
	Action string
	Rate   pepa.Rate
	Src    RateSrc
	To     int // target local state

	act int32 // Action's index in the table's action list
}

// termKind is the operator at the top of a term, which decides where
// pepa.AppendString parenthesizes it as an operand.
type termKind uint8

const (
	kindConst termKind = iota
	kindPrefix
	kindChoice
	kindCoop
	kindHide
)

// NewLocals derives the local-derivative table reachable from the seeds,
// which must be sequential terms of the model. A constant whose
// definition is a cooperation or a hiding, reached where a sequential
// term is required, is a *pepa.CompositeConstError.
func NewLocals(m *pepa.Model, seeds []pepa.Process) (*Locals, error) {
	l, _, err := newLocals(m, seeds)
	return l, err
}

// newLocals is NewLocals that also returns each seed's local state id.
func newLocals(m *pepa.Model, seeds []pepa.Process) (*Locals, []int32, error) {
	l := &Locals{model: m, index: map[string]int32{}, actID: map[string]int32{}}
	ids := make([]int32, len(seeds))
	for i, p := range seeds {
		id, err := l.add(p)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = id
	}
	for s := 0; s < len(l.terms); s++ {
		ts, err := l.derive(nil, l.terms[s], nil)
		if err != nil {
			return nil, nil, err
		}
		l.Trans = append(l.Trans, ts)
	}
	l.terms = nil
	return l, ids, nil
}

// add returns the id of the sequential term p, numbering it if new.
func (l *Locals) add(p pepa.Process) (int32, error) {
	var kind termKind
	switch t := p.(type) {
	case *pepa.Prefix:
		kind = kindPrefix
	case *pepa.Choice:
		kind = kindChoice
	case *pepa.Const:
		body, err := l.model.Unfold(t)
		if err != nil {
			return 0, fmt.Errorf("derive: %w", err)
		}
		if pepa.IsComposite(body) {
			return 0, fmt.Errorf("derive: %w", &pepa.CompositeConstError{Name: t.Name})
		}
		kind = kindConst
	default:
		return 0, errNotSequential(p)
	}
	l.buf = pepa.AppendString(l.buf[:0], p)
	if id, ok := l.index[string(l.buf)]; ok {
		return id, nil
	}
	id := int32(len(l.States))
	key := string(l.buf)
	l.index[key] = id
	l.States = append(l.States, key)
	l.terms = append(l.terms, p)
	l.kinds = append(l.kinds, kind)
	return id, nil
}

// derive appends the transitions of the sequential term p to out.
// resolving lists the constants being resolved without an intervening
// prefix, which catches unguarded recursion.
func (l *Locals) derive(out []LocalTransition, p pepa.Process, resolving []string) ([]LocalTransition, error) {
	switch t := p.(type) {
	case *pepa.Prefix:
		r, err := t.Rate.Eval(l.model.Rates)
		if err != nil {
			return nil, err
		}
		var src RateSrc
		switch rx := t.Rate.(type) {
		case *pepa.RateRef:
			src = RateSrc{Const: rx.Name}
		case *pepa.RateLit, *pepa.RatePassive:
			src = RateSrc{Fixed: true}
			// RateBin stays opaque: arithmetic over constants would need
			// re-evaluation, not a plain lookup.
		}
		to, err := l.add(t.Cont)
		if err != nil {
			return nil, err
		}
		return append(out, LocalTransition{Action: t.Action, Rate: r, Src: src, To: int(to), act: l.action(t.Action)}), nil
	case *pepa.Choice:
		out, err := l.derive(out, t.Left, resolving)
		if err != nil {
			return nil, err
		}
		return l.derive(out, t.Right, resolving)
	case *pepa.Const:
		def, ok := l.model.Defs[t.Name]
		if !ok {
			return nil, fmt.Errorf("derive: undefined process %q", t.Name)
		}
		if slices.Contains(resolving, t.Name) {
			return nil, fmt.Errorf("derive: unguarded recursion through %q", t.Name)
		}
		if body, err := l.model.Unfold(t); err == nil && pepa.IsComposite(body) {
			return nil, fmt.Errorf("derive: %w", &pepa.CompositeConstError{Name: t.Name})
		}
		return l.derive(out, def.Body, append(resolving, t.Name))
	default:
		return nil, errNotSequential(p)
	}
}

// action returns the index of an action type, adding it if new.
func (l *Locals) action(name string) int32 {
	if id, ok := l.actID[name]; ok {
		return id
	}
	id := int32(len(l.actions))
	l.actID[name] = id
	l.actions = append(l.actions, name)
	return id
}

func errNotSequential(p pepa.Process) error {
	what := "cooperation"
	if _, ok := p.(*pepa.Hide); ok {
		what = "hiding"
	}
	return fmt.Errorf("derive: %s cannot occur inside a sequential component: %s", what, p)
}

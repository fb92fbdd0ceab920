package pepa

import (
	"fmt"
	"sort"
)

// CheckResult aggregates the findings of the static well-formedness checks.
type CheckResult struct {
	// Errors are violations that make derivation impossible or unsound.
	Errors []error
	// Warnings are suspicious constructs that nevertheless derive.
	Warnings []string
}

// Err returns the first error, or nil if the model checks clean.
func (c *CheckResult) Err() error {
	if len(c.Errors) > 0 {
		return c.Errors[0]
	}
	return nil
}

// Check performs the static analyses the PEPA workbench applies before
// derivation:
//
//   - every process constant referenced is defined;
//   - every rate constant referenced is defined and rate expressions are
//     well typed (no passive arithmetic abuse);
//   - recursion is guarded (no constant can reach itself through choice
//     alone without passing a prefix);
//   - static cooperation/hiding cannot appear under a prefix or inside a
//     choice (PEPA's two-level grammar), directly or through a constant
//     whose definition is a cooperation or hiding;
//   - cooperation-set actions actually occur in the model (warning);
//   - the system equation only references defined constants.
func Check(m *Model) *CheckResult {
	res := &CheckResult{}
	if m.System == nil {
		res.Errors = append(res.Errors, fmt.Errorf("pepa: model has no system equation"))
		return res
	}

	actions := map[string]bool{}
	for _, name := range m.DefOrder {
		collectActions(m.Defs[name].Body, actions)
	}
	collectActions(m.System, actions)

	// Reference and rate checks over all bodies plus the system equation.
	walkAll := func(p Process, where string) {
		walk(p, func(n Process) {
			switch t := n.(type) {
			case *Const:
				if _, ok := m.Defs[t.Name]; !ok {
					res.Errors = append(res.Errors, fmt.Errorf("pepa: %s references undefined process %q", where, t.Name))
				}
			case *Prefix:
				if _, err := t.Rate.Eval(m.Rates); err != nil {
					res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: %w", where, err))
				} else if r, _ := t.Rate.Eval(m.Rates); !r.Passive && r.Value <= 0 {
					res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: activity (%s, %s) has non-positive rate", where, t.Action, t.Rate))
				}
				if t.Action == Tau {
					res.Warnings = append(res.Warnings, fmt.Sprintf("%s performs the silent action %q explicitly", where, Tau))
				}
			case *Coop:
				for _, a := range t.Set {
					if !actions[a] {
						res.Warnings = append(res.Warnings, fmt.Sprintf("%s cooperates over action %q which no component performs", where, a))
					}
					if a == Tau {
						res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: the silent action cannot appear in a cooperation set", where))
					}
				}
			case *Hide:
				for _, a := range t.Set {
					if !actions[a] {
						res.Warnings = append(res.Warnings, fmt.Sprintf("%s hides action %q which no component performs", where, a))
					}
				}
			}
		})
	}
	for _, name := range m.DefOrder {
		walkAll(m.Defs[name].Body, "definition of "+name)
	}
	walkAll(m.System, "system equation")

	// Two-level grammar: no cooperation or hiding under a prefix or inside
	// a choice operand, directly or through constants (sequential
	// components must stay sequential).
	for _, name := range m.DefOrder {
		checkSequentialLevels(m, m.Defs[name].Body, "definition of "+name, res)
	}
	checkSequentialLevels(m, m.System, "system equation", res)

	// Guarded recursion: build the "unguarded reachability" graph over
	// constants (edges through choice operands and bare constant bodies)
	// and reject cycles.
	unguarded := map[string][]string{}
	for _, name := range m.DefOrder {
		targets := map[string]bool{}
		collectUnguarded(m.Defs[name].Body, targets)
		for t := range targets {
			unguarded[name] = append(unguarded[name], t)
		}
		sort.Strings(unguarded[name])
	}
	state := map[string]int{} // 0 unvisited, 1 in-stack, 2 done
	var visit func(string) bool
	visit = func(n string) bool {
		switch state[n] {
		case 1:
			return true // cycle
		case 2:
			return false
		}
		state[n] = 1
		for _, t := range unguarded[n] {
			if _, defined := m.Defs[t]; !defined {
				continue // already reported as undefined
			}
			if visit(t) {
				state[n] = 2
				return true
			}
		}
		state[n] = 2
		return false
	}
	names := append([]string(nil), m.DefOrder...)
	sort.Strings(names)
	for _, name := range names {
		if state[name] == 0 && visit(name) {
			res.Errors = append(res.Errors, fmt.Errorf("pepa: unguarded recursion through definition %q", name))
		}
	}
	return res
}

// walk visits every node of a process term in preorder.
func walk(p Process, fn func(Process)) {
	fn(p)
	switch t := p.(type) {
	case *Prefix:
		walk(t.Cont, fn)
	case *Choice:
		walk(t.Left, fn)
		walk(t.Right, fn)
	case *Coop:
		walk(t.Left, fn)
		walk(t.Right, fn)
	case *Hide:
		walk(t.Proc, fn)
	case *Const:
	}
}

func collectActions(p Process, into map[string]bool) {
	walk(p, func(n Process) {
		if pre, ok := n.(*Prefix); ok {
			into[pre.Action] = true
		}
	})
}

// collectUnguarded records constants reachable from p without passing
// through a prefix.
func collectUnguarded(p Process, into map[string]bool) {
	switch t := p.(type) {
	case *Const:
		into[t.Name] = true
	case *Choice:
		collectUnguarded(t.Left, into)
		collectUnguarded(t.Right, into)
	case *Coop:
		collectUnguarded(t.Left, into)
		collectUnguarded(t.Right, into)
	case *Hide:
		collectUnguarded(t.Proc, into)
	case *Prefix:
		// Guarded: stop.
	}
}

// checkSequentialLevels enforces PEPA's two-level grammar: under a Prefix
// continuation or inside a Choice operand only sequential constructs
// (prefix, choice, constant) may occur, and a constant there must not
// stand for a cooperation or a hiding.
func checkSequentialLevels(m *Model, p Process, where string, res *CheckResult) {
	var seq func(Process)
	seq = func(n Process) {
		switch t := n.(type) {
		case *Coop:
			res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: cooperation cannot occur inside a sequential component", where))
		case *Hide:
			res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: hiding cannot occur inside a sequential component", where))
		case *Prefix:
			seq(t.Cont)
		case *Choice:
			seq(t.Left)
			seq(t.Right)
		case *Const:
			// Undefined constants and cycles are reported elsewhere.
			if body, err := m.Unfold(t); err == nil && IsComposite(body) {
				res.Errors = append(res.Errors, fmt.Errorf("pepa: %s: %w", where, &CompositeConstError{Name: t.Name}))
			}
		}
	}
	var top func(Process)
	top = func(n Process) {
		switch t := n.(type) {
		case *Prefix:
			seq(t.Cont)
		case *Choice:
			seq(t.Left)
			seq(t.Right)
		case *Coop:
			top(t.Left)
			top(t.Right)
		case *Hide:
			top(t.Proc)
		case *Const:
		}
	}
	top(p)
}

// CompositeConstError reports a constant used as a sequential component —
// under a prefix or as a choice operand — whose definition, through
// further constants, is a cooperation or a hiding. PEPA's two-level
// grammar forbids cooperation inside a sequential component at any depth,
// so a model's cooperation structure is fixed by its system equation.
type CompositeConstError struct{ Name string }

func (e *CompositeConstError) Error() string {
	return fmt.Sprintf("pepa: constant %q is a cooperation or hiding, so it cannot occur inside a sequential component", e.Name)
}

// IsComposite reports whether p is a cooperation or a hiding.
func IsComposite(p Process) bool {
	switch p.(type) {
	case *Coop, *Hide:
		return true
	}
	return false
}

// Unfold follows p through constant definitions to the first term that is
// not a constant. It fails on an undefined constant or on a cycle of
// bare constants (unguarded recursion); the caller names its package.
func (m *Model) Unfold(p Process) (Process, error) {
	for steps := 0; ; steps++ {
		c, ok := p.(*Const)
		if !ok {
			return p, nil
		}
		def, ok := m.Defs[c.Name]
		if !ok {
			return nil, fmt.Errorf("undefined process %q", c.Name)
		}
		if steps > len(m.Defs) {
			return nil, fmt.Errorf("unguarded recursion through %q", c.Name)
		}
		p = def.Body
	}
}

// Package gpepa implements Grouped PEPA (Hayden & Bradley) and the fluid
// (mean-field) analysis of the GPAnalyser tool: component groups G{C[n]},
// labelled cooperation between groups, generation of the mean-field ODE
// system with min-coupled apparent rates, and an exact population-CTMC
// stochastic simulator for validation.
//
// GPEPA replaces the underlying CTMC of a PEPA model with a system of
// differential equations over component counts, which is what lets
// GPAnalyser evaluate models with ~10^129 discrete states (the paper's
// §II.A). Sequential component definitions reuse the PEPA syntax from
// internal/pepa; only the system equation differs, using group constructs:
//
//	Clients{Client[100]} <request> Servers{Server[10]}
package gpepa

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pepa"
)

// GroupExpr is a node of the grouped system equation: either a Group leaf
// or a cooperation between two grouped subsystems.
type GroupExpr interface {
	String() string
	isGroupExpr()
}

// Group is a labelled group holding counts of sequential components.
type Group struct {
	Label string
	// Seeds maps component constant names to their initial counts, in
	// declaration order.
	Seeds []Seed
}

// Seed is one "C[n]" entry of a group.
type Seed struct {
	Component string
	Count     float64
}

// GroupCoop is cooperation between grouped subsystems over an action set.
type GroupCoop struct {
	Left, Right GroupExpr
	Set         []string // sorted, deduplicated
}

func (*Group) isGroupExpr()     {}
func (*GroupCoop) isGroupExpr() {}

func (g *Group) String() string {
	var b strings.Builder
	b.WriteString(g.Label)
	b.WriteByte('{')
	for i, s := range g.Seeds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s[%g]", s.Component, s.Count)
	}
	b.WriteByte('}')
	return b.String()
}

func (c *GroupCoop) String() string {
	return c.Left.String() + " <" + strings.Join(c.Set, ",") + "> " + c.Right.String()
}

// Model is a parsed GPEPA model: PEPA sequential definitions plus a grouped
// system equation.
type Model struct {
	Defs   *pepa.Model // component and rate definitions (its System is unused)
	System GroupExpr
}

// String renders the model in concrete syntax.
func (m *Model) String() string {
	var b strings.Builder
	for _, name := range m.Defs.RateOrder {
		fmt.Fprintf(&b, "%s = %g;\n", name, m.Defs.Rates[name])
	}
	for _, name := range m.Defs.DefOrder {
		fmt.Fprintf(&b, "%s = %s;\n", name, m.Defs.Defs[name].Body.String())
	}
	b.WriteString(m.System.String())
	b.WriteByte('\n')
	return b.String()
}

// Groups returns the group leaves of the system in left-to-right order.
func (m *Model) Groups() []*Group {
	var out []*Group
	var visit func(GroupExpr)
	visit = func(e GroupExpr) {
		switch t := e.(type) {
		case *Group:
			out = append(out, t)
		case *GroupCoop:
			visit(t.Left)
			visit(t.Right)
		}
	}
	visit(m.System)
	return out
}

// Parse parses a GPEPA model: PEPA-style rate and component definitions
// followed by a grouped system equation.
func Parse(src string) (*Model, error) {
	toks, err := pepa.LexAll(src)
	if err != nil {
		return nil, err
	}
	// Split the token stream at the start of the system equation: the first
	// position where an IDENT is followed by '{' at statement start. All
	// statements before it are PEPA definitions (each ends in ';').
	sysStart := -1
	depth := 0
	stmtStart := 0
	for i := 0; i < len(toks); i++ {
		switch toks[i].Kind {
		case pepa.TokSemi:
			if depth == 0 {
				stmtStart = i + 1
			}
		case pepa.TokLParen:
			depth++
		case pepa.TokRParen:
			depth--
		case pepa.TokLBrace:
			// A '{' not preceded by '/' (hiding) begins a group.
			if i > 0 && toks[i-1].Kind == pepa.TokIdent && (i < 2 || toks[i-2].Kind != pepa.TokSlash) {
				sysStart = stmtStart
			}
		}
		if sysStart >= 0 {
			break
		}
	}
	if sysStart < 0 {
		return nil, fmt.Errorf("gpepa: no grouped system equation found (expected Label{Component[count]} ...)")
	}
	// The definitions are the tokens before the system equation, ended by
	// an EOF where the system equation starts. The capped slice makes
	// append copy, so toks[sysStart] stays the system's first token.
	sys := toks[sysStart]
	defToks := append(toks[:sysStart:sysStart], pepa.Token{Kind: pepa.TokEOF, Line: sys.Line, Col: sys.Col})
	defs, err := pepa.ParseTokens(defToks)
	if err != nil {
		return nil, fmt.Errorf("gpepa: parsing definitions: %w", err)
	}
	gp := &groupParser{toks: toks[sysStart:]}
	system, err := gp.parseExpr()
	if err != nil {
		return nil, err
	}
	if !gp.at(pepa.TokEOF) && !gp.at(pepa.TokSemi) {
		return nil, gp.errHere("unexpected trailing input after system equation")
	}
	m := &Model{Defs: defs, System: system}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Model {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type groupParser struct {
	toks []pepa.Token
	pos  int
}

func (p *groupParser) cur() pepa.Token          { return p.toks[p.pos] }
func (p *groupParser) at(k pepa.TokenKind) bool { return p.toks[p.pos].Kind == k }

func (p *groupParser) next() pepa.Token {
	t := p.toks[p.pos]
	if t.Kind != pepa.TokEOF {
		p.pos++
	}
	return t
}

func (p *groupParser) expect(k pepa.TokenKind) error {
	if !p.at(k) {
		return p.errHere("expected %s, found %q", k, p.cur().Text)
	}
	p.next()
	return nil
}

func (p *groupParser) errHere(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("gpepa: %d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

// parseExpr := term ( ('<' actions '>' | '||') term )*
func (p *groupParser) parseExpr() (GroupExpr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(pepa.TokLAngle):
			p.next()
			var set []string
			for !p.at(pepa.TokRAngle) {
				t := p.next()
				if t.Kind != pepa.TokIdent {
					return nil, p.errHere("expected action name in cooperation set")
				}
				set = append(set, t.Text)
				if p.at(pepa.TokComma) {
					p.next()
				}
			}
			p.next() // '>'
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &GroupCoop{Left: left, Right: right, Set: pepa.NormalizeSet(set)}
		case p.at(pepa.TokParallel):
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &GroupCoop{Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

// parseTerm := IDENT '{' seeds '}' | '(' expr ')'
func (p *groupParser) parseTerm() (GroupExpr, error) {
	if p.at(pepa.TokLParen) {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(pepa.TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	label := p.next()
	if label.Kind != pepa.TokIdent {
		return nil, p.errHere("expected group label")
	}
	if err := p.expect(pepa.TokLBrace); err != nil {
		return nil, err
	}
	g := &Group{Label: label.Text}
	for {
		comp := p.next()
		if comp.Kind != pepa.TokIdent {
			return nil, p.errHere("expected component name in group %q", g.Label)
		}
		if err := p.expect(pepa.TokLBracket); err != nil {
			return nil, err
		}
		count := p.next()
		if count.Kind != pepa.TokNumber {
			return nil, p.errHere("expected component count for %s in group %q", comp.Text, g.Label)
		}
		if err := p.expect(pepa.TokRBracket); err != nil {
			return nil, err
		}
		g.Seeds = append(g.Seeds, Seed{Component: comp.Text, Count: count.Num})
		if p.at(pepa.TokComma) {
			p.next()
			continue
		}
		if err := p.expect(pepa.TokRBrace); err != nil {
			return nil, err
		}
		return g, nil
	}
}

// Validate checks that every seeded component is defined, sequential, and
// that counts are positive.
func (m *Model) validate() error {
	for _, g := range m.Groups() {
		if len(g.Seeds) == 0 {
			return fmt.Errorf("gpepa: group %q has no components", g.Label)
		}
		for _, s := range g.Seeds {
			if _, ok := m.Defs.Defs[s.Component]; !ok {
				return fmt.Errorf("gpepa: group %q seeds undefined component %q", g.Label, s.Component)
			}
			if s.Count < 0 {
				return fmt.Errorf("gpepa: group %q component %q has negative count %g", g.Label, s.Component, s.Count)
			}
		}
	}
	labels := map[string]bool{}
	for _, g := range m.Groups() {
		if labels[g.Label] {
			return fmt.Errorf("gpepa: duplicate group label %q", g.Label)
		}
		labels[g.Label] = true
	}
	return nil
}

// sortedActions returns the union of cooperation-set actions in the system.
func (m *Model) coopActions() []string {
	set := map[string]bool{}
	var visit func(GroupExpr)
	visit = func(e GroupExpr) {
		if c, ok := e.(*GroupCoop); ok {
			for _, a := range c.Set {
				set[a] = true
			}
			visit(c.Left)
			visit(c.Right)
		}
	}
	visit(m.System)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

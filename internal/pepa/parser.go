package pepa

import (
	"fmt"
	"unicode"
)

// Parse parses a complete PEPA model:
//
//	rate constants:      r = 1.5;
//	process definitions: P = (think, r).P1;
//	system equation:     P <think> Q     (final expression, optional ';')
//
// Following PEPA convention, identifiers beginning with an upper-case
// letter are process names and identifiers beginning with a lower-case
// letter are rate constants and action types. Comments ("//", "%", and
// "/* */") are ignored.
func Parse(src string) (*Model, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses a model from tokens as LexAll returns them: the
// stream must end in a TokEOF token, whose position error messages report
// for input that ends too early.
func ParseTokens(toks []Token) (*Model, error) {
	p := &parser{toks: toks}
	m := NewModel()
	for {
		if p.at(TokEOF) {
			break
		}
		// A definition is IDENT '=' ...; anything else starts the system
		// equation.
		if p.at(TokIdent) && p.atOffset(1, TokEquals) {
			name := p.next().Text
			p.next() // '='
			if isProcessName(name) {
				body, err := p.parseProcess()
				if err != nil {
					return nil, err
				}
				if _, dup := m.Defs[name]; dup {
					return nil, p.errHere("duplicate process definition %q", name)
				}
				m.Define(name, body)
			} else {
				expr, err := p.parseRateExpr()
				if err != nil {
					return nil, err
				}
				r, err := expr.Eval(m.Rates)
				if err != nil {
					return nil, fmt.Errorf("in definition of rate %q: %w", name, err)
				}
				if r.Passive {
					return nil, p.errHere("rate constant %q cannot be passive", name)
				}
				if _, dup := m.Rates[name]; dup {
					return nil, p.errHere("duplicate rate definition %q", name)
				}
				m.DefineRate(name, r.Value)
			}
			if err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			continue
		}
		sys, err := p.parseProcess()
		if err != nil {
			return nil, err
		}
		if m.System != nil {
			return nil, p.errHere("multiple system equations")
		}
		m.System = sys
		if p.at(TokSemi) {
			p.next()
		}
	}
	if m.System == nil {
		// A model consisting only of definitions uses the last definition as
		// its system equation, matching the PEPA workbench's behaviour for
		// single-component experiments.
		if len(m.DefOrder) == 0 {
			return nil, fmt.Errorf("pepa: model has no process definitions and no system equation")
		}
		m.System = &Const{Name: m.DefOrder[len(m.DefOrder)-1]}
	}
	return m, nil
}

// MustParse is Parse that panics on error, for tests and fixed fixtures.
func MustParse(src string) *Model {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

func isProcessName(name string) bool {
	for _, r := range name {
		return unicode.IsUpper(r)
	}
	return false
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token          { return p.toks[p.pos] }
func (p *parser) at(k TokenKind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) atOffset(off int, k TokenKind) bool {
	if p.pos+off >= len(p.toks) {
		return k == TokEOF
	}
	return p.toks[p.pos+off].Kind == k
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokenKind) error {
	if !p.at(k) {
		return p.errHere("expected %s, found %s %q", k, p.cur().Kind, p.cur().Text)
	}
	p.next()
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// parseProcess parses the lowest-precedence level: cooperation.
//
//	coop := hide ( ('<' actions '>' | '||') hide )*
func (p *parser) parseProcess() (Process, error) {
	left, err := p.parseHide()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokLAngle):
			p.next()
			set, err := p.parseActionList(TokRAngle)
			if err != nil {
				return nil, err
			}
			right, err := p.parseHide()
			if err != nil {
				return nil, err
			}
			left = NewCoop(left, right, set)
		case p.at(TokParallel):
			p.next()
			right, err := p.parseHide()
			if err != nil {
				return nil, err
			}
			left = NewCoop(left, right, nil)
		default:
			return left, nil
		}
	}
}

// parseHide parses hiding, which binds tighter than cooperation:
//
//	hide := choice ( '/' '{' actions '}' )*
func (p *parser) parseHide() (Process, error) {
	proc, err := p.parseChoice()
	if err != nil {
		return nil, err
	}
	for p.at(TokSlash) {
		p.next()
		if err := p.expect(TokLBrace); err != nil {
			return nil, err
		}
		set, err := p.parseActionList(TokRBrace)
		if err != nil {
			return nil, err
		}
		if len(set) == 0 {
			return nil, p.errHere("hiding set cannot be empty")
		}
		proc = NewHide(proc, set)
	}
	return proc, nil
}

// parseChoice parses competitive choice:
//
//	choice := primary ( '+' primary )*
func (p *parser) parseChoice() (Process, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) {
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &Choice{Left: left, Right: right}
	}
	return left, nil
}

// parsePrimary parses prefixes, constants, and parenthesized processes:
//
//	primary := '(' action ',' rate ')' '.' primary
//	         | IDENT
//	         | '(' process ')'
func (p *parser) parsePrimary() (Process, error) {
	switch {
	case p.at(TokIdent):
		t := p.next()
		if !isProcessName(t.Text) {
			return nil, &SyntaxError{Line: t.Line, Col: t.Col,
				Msg: fmt.Sprintf("process name %q must begin with an upper-case letter", t.Text)}
		}
		return &Const{Name: t.Text}, nil
	case p.at(TokLParen):
		// Distinguish an activity prefix "(action, rate)" from a grouped
		// process "(P ...)": a prefix has IDENT ',' immediately inside.
		if p.atOffset(1, TokIdent) && p.atOffset(2, TokComma) && !isProcessName(p.toks[p.pos+1].Text) {
			return p.parsePrefix()
		}
		p.next()
		inner, err := p.parseProcess()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errHere("expected a process term, found %s %q", p.cur().Kind, p.cur().Text)
	}
}

func (p *parser) parsePrefix() (Process, error) {
	if err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	action := p.next()
	if action.Kind != TokIdent {
		return nil, p.errHere("expected action name")
	}
	if err := p.expect(TokComma); err != nil {
		return nil, err
	}
	rate, err := p.parseRateExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if err := p.expect(TokDot); err != nil {
		return nil, err
	}
	cont, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return &Prefix{Action: action.Text, Rate: rate, Cont: cont}, nil
}

func (p *parser) parseActionList(closing TokenKind) ([]string, error) {
	var set []string
	if p.at(closing) { // empty set, e.g. "<>"
		p.next()
		return nil, nil
	}
	for {
		t := p.next()
		if t.Kind != TokIdent {
			return nil, p.errHere("expected action name in cooperation/hiding set")
		}
		if isProcessName(t.Text) {
			return nil, &SyntaxError{Line: t.Line, Col: t.Col,
				Msg: fmt.Sprintf("action name %q must begin with a lower-case letter", t.Text)}
		}
		set = append(set, t.Text)
		if p.at(TokComma) {
			p.next()
			continue
		}
		if err := p.expect(closing); err != nil {
			return nil, err
		}
		return set, nil
	}
}

// parseRateExpr parses rate arithmetic:
//
//	rexpr   := rterm (('+'|'-') rterm)*
//	rterm   := rfactor (('*'|'/') rfactor)*
//	rfactor := NUMBER | IDENT | 'T' | '(' rexpr ')' | '-' rfactor
func (p *parser) parseRateExpr() (RateExpr, error) {
	left, err := p.parseRateTerm()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := RateAdd
		if p.next().Kind == TokMinus {
			op = RateSub
		}
		right, err := p.parseRateTerm()
		if err != nil {
			return nil, err
		}
		left = &RateBin{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseRateTerm() (RateExpr, error) {
	left, err := p.parseRateFactor()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) {
		op := RateMul
		if p.next().Kind == TokSlash {
			op = RateDiv
		}
		right, err := p.parseRateFactor()
		if err != nil {
			return nil, err
		}
		left = &RateBin{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseRateFactor() (RateExpr, error) {
	switch {
	case p.at(TokNumber):
		return &RateLit{Value: p.next().Num}, nil
	case p.at(TokPassive):
		p.next()
		return &RatePassive{}, nil
	case p.at(TokIdent):
		t := p.next()
		if isProcessName(t.Text) {
			return nil, &SyntaxError{Line: t.Line, Col: t.Col,
				Msg: fmt.Sprintf("rate constant %q must begin with a lower-case letter", t.Text)}
		}
		return &RateRef{Name: t.Text}, nil
	case p.at(TokLParen):
		p.next()
		e, err := p.parseRateExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(TokMinus):
		p.next()
		e, err := p.parseRateFactor()
		if err != nil {
			return nil, err
		}
		return &RateBin{Op: RateSub, Left: &RateLit{Value: 0}, Right: e}, nil
	default:
		return nil, p.errHere("expected a rate expression, found %s %q", p.cur().Kind, p.cur().Text)
	}
}

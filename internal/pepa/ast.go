package pepa

import (
	"fmt"
	"sort"
	"strings"
)

// Process is a node of a PEPA process term. The five constructors mirror
// the five combinators of the calculus: prefix, choice, cooperation,
// hiding, and constant.
type Process interface {
	// String renders the term in canonical concrete syntax. Canonical means
	// deterministic: cooperation sets and hiding sets are sorted, and no
	// redundant whitespace is produced, so the string doubles as a state
	// key during derivation.
	String() string
	isProcess()
}

// Prefix is the activity prefix (action, rate).Continuation.
type Prefix struct {
	Action string
	Rate   RateExpr
	Cont   Process
}

// Choice is the competitive choice P + Q.
type Choice struct {
	Left, Right Process
}

// Coop is the cooperation P <L> Q over the action set L. An empty set is
// pure parallel composition (written P <> Q or P || Q).
type Coop struct {
	Left, Right Process
	Set         []string // sorted, deduplicated
}

// Hide is the abstraction P/L: actions in L become the silent action tau.
type Hide struct {
	Proc Process
	Set  []string // sorted, deduplicated
}

// Const is a reference to a named process definition.
type Const struct {
	Name string
}

func (*Prefix) isProcess() {}
func (*Choice) isProcess() {}
func (*Coop) isProcess()   {}
func (*Hide) isProcess()   {}
func (*Const) isProcess()  {}

// AppendString appends the canonical rendering of p to dst and returns
// the extended buffer. It is the one printer of process terms — each
// String method returns its rendering — and it renders the whole term in
// a single pass, so derivation can key local derivatives and aggregated
// states through one reused buffer instead of allocating a string per
// probe; every state string derivation reports equals this rendering.
//
// Two terms render alike only if they derive the same transitions, which
// is what lets the string key them. So an operand is
// parenthesized wherever the parser would otherwise regroup it — in
// particular a cooperation that is the right operand of a cooperation,
// since P <a> Q <b> R parses as (P <a> Q) <b> R — except inside a choice
// chain, which prints flat: choice is associative, and both nestings of a
// chain derive the same transitions in the same order.
func AppendString(dst []byte, p Process) []byte {
	switch t := p.(type) {
	case *Prefix:
		dst = append(dst, '(')
		dst = append(dst, t.Action...)
		dst = append(dst, ", "...)
		dst = append(dst, t.Rate.String()...)
		dst = append(dst, ")."...)
		switch t.Cont.(type) {
		case *Const, *Prefix:
			return AppendString(dst, t.Cont)
		}
		return appendGrouped(dst, t.Cont)
	case *Choice:
		// Cooperation or hiding inside a choice operand is outside PEPA's
		// two-level grammar (Check rejects it), but the printer must still
		// be structure-faithful for error reporting and fuzzing.
		dst = appendChoiceOperand(dst, t.Left)
		dst = append(dst, " + "...)
		return appendChoiceOperand(dst, t.Right)
	case *Coop:
		if _, ok := t.Left.(*Choice); ok {
			dst = appendGrouped(dst, t.Left)
		} else {
			dst = AppendString(dst, t.Left)
		}
		dst = append(dst, " <"...)
		dst = appendSet(dst, t.Set)
		dst = append(dst, "> "...)
		switch t.Right.(type) {
		case *Choice, *Coop:
			return appendGrouped(dst, t.Right)
		}
		return AppendString(dst, t.Right)
	case *Hide:
		if _, ok := t.Proc.(*Const); ok {
			dst = AppendString(dst, t.Proc)
		} else {
			dst = appendGrouped(dst, t.Proc)
		}
		dst = append(dst, "/{"...)
		dst = appendSet(dst, t.Set)
		return append(dst, '}')
	case *Const:
		return append(dst, t.Name...)
	default:
		panic(fmt.Sprintf("pepa: AppendString of unknown node %T", p))
	}
}

// appendGrouped appends p in parentheses.
func appendGrouped(dst []byte, p Process) []byte {
	dst = append(dst, '(')
	dst = AppendString(dst, p)
	return append(dst, ')')
}

// appendChoiceOperand appends a choice operand, grouping a cooperation
// or a hiding.
func appendChoiceOperand(dst []byte, p Process) []byte {
	switch p.(type) {
	case *Coop, *Hide:
		return appendGrouped(dst, p)
	}
	return AppendString(dst, p)
}

// appendSet appends an action set comma-separated.
func appendSet(dst []byte, set []string) []byte {
	for i, a := range set {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, a...)
	}
	return dst
}

func (p *Prefix) String() string { return string(AppendString(nil, p)) }
func (c *Choice) String() string { return string(AppendString(nil, c)) }
func (c *Coop) String() string   { return string(AppendString(nil, c)) }
func (h *Hide) String() string   { return string(AppendString(nil, h)) }

// String of a constant is its name — AppendString's rendering of it —
// returned without a copy.
func (c *Const) String() string { return c.Name }

// NewCoop builds a cooperation node with a normalized (sorted, deduped)
// action set.
func NewCoop(left, right Process, set []string) *Coop {
	return &Coop{Left: left, Right: right, Set: NormalizeSet(set)}
}

// NewHide builds a hiding node with a normalized action set.
func NewHide(p Process, set []string) *Hide {
	return &Hide{Proc: p, Set: NormalizeSet(set)}
}

// NormalizeSet sorts and deduplicates an action set.
func NormalizeSet(set []string) []string {
	if len(set) == 0 {
		return nil
	}
	out := append([]string(nil), set...)
	sort.Strings(out)
	k := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[k] = s
			k++
		}
	}
	return out[:k]
}

// Contains reports whether the sorted set contains the action.
func Contains(set []string, action string) bool {
	i := sort.SearchStrings(set, action)
	return i < len(set) && set[i] == action
}

// RateExpr is a rate-valued expression appearing in a prefix: a literal, a
// reference to a rate constant, the passive symbol, or arithmetic over
// those.
type RateExpr interface {
	String() string
	// Eval computes the rate under the given rate-constant environment.
	Eval(env map[string]float64) (Rate, error)
}

// RateLit is a numeric literal.
type RateLit struct{ Value float64 }

// RateRef references a named rate constant.
type RateRef struct{ Name string }

// RatePassive is the passive rate symbol T, optionally weighted (w*T is
// represented as RateBin{Mul, RateLit{w}, RatePassive{}}).
type RatePassive struct{}

// RateBinOp enumerates rate-expression operators.
type RateBinOp byte

// Rate-expression operators.
const (
	RateAdd RateBinOp = '+'
	RateSub RateBinOp = '-'
	RateMul RateBinOp = '*'
	RateDiv RateBinOp = '/'
)

// RateBin is a binary arithmetic node over rate expressions.
type RateBin struct {
	Op          RateBinOp
	Left, Right RateExpr
}

func (r *RateLit) String() string   { return trimFloat(r.Value) }
func (r *RateRef) String() string   { return r.Name }
func (*RatePassive) String() string { return "T" }
func (r *RateBin) String() string {
	return "(" + r.Left.String() + " " + string(r.Op) + " " + r.Right.String() + ")"
}

func trimFloat(v float64) string {
	if v == 0 {
		// Negative zero (e.g. a folded 0 * -1) must print as "0": "-0"
		// reparses as a subtraction yielding +0, breaking the
		// print/parse fixpoint.
		return "0"
	}
	s := strings.TrimRight(strings.TrimRight(strconvFormat(v), "0"), ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Eval of a literal.
func (r *RateLit) Eval(map[string]float64) (Rate, error) { return Active(r.Value), nil }

// Eval of a rate-constant reference.
func (r *RateRef) Eval(env map[string]float64) (Rate, error) {
	v, ok := env[r.Name]
	if !ok {
		return Rate{}, &UndefinedRateError{Name: r.Name}
	}
	return Active(v), nil
}

// Eval of the passive symbol.
func (*RatePassive) Eval(map[string]float64) (Rate, error) { return PassiveRate(1), nil }

// Eval of arithmetic. Passive operands are only legal as w*T (literal or
// evaluated weight times the passive symbol).
func (r *RateBin) Eval(env map[string]float64) (Rate, error) {
	l, err := r.Left.Eval(env)
	if err != nil {
		return Rate{}, err
	}
	rr, err := r.Right.Eval(env)
	if err != nil {
		return Rate{}, err
	}
	switch r.Op {
	case RateAdd:
		return l.Add(rr)
	case RateSub:
		if l.Passive || rr.Passive {
			return Rate{}, &RateArithmeticError{Op: "-", Detail: "cannot subtract passive rates"}
		}
		return Active(l.Value - rr.Value), nil
	case RateMul:
		switch {
		case l.Passive && rr.Passive:
			return Rate{}, &RateArithmeticError{Op: "*", Detail: "cannot multiply two passive rates"}
		case l.Passive:
			return PassiveRate(l.Weight * rr.Value), nil
		case rr.Passive:
			return PassiveRate(l.Value * rr.Weight), nil
		default:
			return Active(l.Value * rr.Value), nil
		}
	case RateDiv:
		if rr.Passive {
			return Rate{}, &RateArithmeticError{Op: "/", Detail: "cannot divide by a passive rate"}
		}
		if rr.Value == 0 {
			return Rate{}, &RateArithmeticError{Op: "/", Detail: "division by zero"}
		}
		if l.Passive {
			return PassiveRate(l.Weight / rr.Value), nil
		}
		return Active(l.Value / rr.Value), nil
	default:
		return Rate{}, &RateArithmeticError{Op: string(rune(r.Op)), Detail: "unknown operator"}
	}
}

// UndefinedRateError reports a reference to a rate constant with no
// definition.
type UndefinedRateError struct{ Name string }

func (e *UndefinedRateError) Error() string {
	return "pepa: undefined rate constant " + e.Name
}

// RateArithmeticError reports an ill-typed rate expression.
type RateArithmeticError struct{ Op, Detail string }

func (e *RateArithmeticError) Error() string {
	return "pepa: illegal rate arithmetic (" + e.Op + "): " + e.Detail
}

// Definition is a named process definition A = P.
type Definition struct {
	Name string
	Body Process
}

// Model is a parsed PEPA model: rate-constant definitions, process
// definitions, and the system equation.
type Model struct {
	Rates     map[string]float64 // evaluated rate constants
	RateOrder []string           // definition order, for printing
	Defs      map[string]*Definition
	DefOrder  []string // definition order, for printing
	System    Process
}

// NewModel returns an empty model ready for programmatic construction.
func NewModel() *Model {
	return &Model{Rates: map[string]float64{}, Defs: map[string]*Definition{}}
}

// DefineRate adds (or overwrites) a rate constant.
func (m *Model) DefineRate(name string, v float64) {
	if _, exists := m.Rates[name]; !exists {
		m.RateOrder = append(m.RateOrder, name)
	}
	m.Rates[name] = v
}

// Define adds (or overwrites) a process definition.
func (m *Model) Define(name string, body Process) {
	if _, exists := m.Defs[name]; !exists {
		m.DefOrder = append(m.DefOrder, name)
	}
	m.Defs[name] = &Definition{Name: name, Body: body}
}

// String renders the whole model in canonical concrete syntax.
func (m *Model) String() string {
	var b strings.Builder
	for _, name := range m.RateOrder {
		b.WriteString(name)
		b.WriteString(" = ")
		b.WriteString(trimFloat(m.Rates[name]))
		b.WriteString(";\n")
	}
	for _, name := range m.DefOrder {
		b.WriteString(name)
		b.WriteString(" = ")
		b.WriteString(m.Defs[name].Body.String())
		b.WriteString(";\n")
	}
	if m.System != nil {
		b.WriteString(m.System.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Package query implements a small CSL-style property language over
// derived PEPA models — the "qualitative analysis checks ... verification
// that the modelled system is performing correctly and responds to queries
// in a reasonable time" that §II.A credits process calculi with (and that
// PRISM, the paper's ref [22], industrialized):
//
//	S >= 0.9  [ "Proc" ]          steady-state probability of states
//	                              whose canonical term contains "Proc"
//	P >= 0.95 [ F<=100 "Done" ]   probability of reaching a "Done" state
//	                              within 100 time units
//	T >= 2.5  [ serve ]           steady-state throughput of an action
//
// Check parses and evaluates a property, returning the measured value and
// whether the bound holds.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/pepa/derive"
)

// Kind is the property sort.
type Kind int

// Property kinds.
const (
	SteadyState  Kind = iota // S cmp p [ "pattern" ]
	Reachability             // P cmp p [ F<=t "pattern" ]
	ThroughputK              // T cmp x [ action ]
)

// Comparison operator.
type Cmp int

// Comparison operators.
const (
	GE Cmp = iota
	GT
	LE
	LT
)

func (c Cmp) String() string {
	switch c {
	case GE:
		return ">="
	case GT:
		return ">"
	case LE:
		return "<="
	default:
		return "<"
	}
}

func (c Cmp) holds(value, bound float64) bool {
	switch c {
	case GE:
		return value >= bound
	case GT:
		return value > bound
	case LE:
		return value <= bound
	default:
		return value < bound
	}
}

// Property is a parsed query.
type Property struct {
	Kind    Kind
	Cmp     Cmp
	Bound   float64
	Pattern string  // state pattern (S, P) or action name (T)
	Horizon float64 // time bound for Reachability
	Source  string
}

func (p *Property) String() string { return p.Source }

// Parse parses a property string.
func Parse(src string) (*Property, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("query: empty property")
	}
	p := &Property{Source: s}
	switch s[0] {
	case 'S':
		p.Kind = SteadyState
	case 'P':
		p.Kind = Reachability
	case 'T':
		p.Kind = ThroughputK
	default:
		return nil, fmt.Errorf("query: property must start with S, P, or T, got %q", s[0])
	}
	rest := strings.TrimSpace(s[1:])
	// Comparison operator.
	switch {
	case strings.HasPrefix(rest, ">="):
		p.Cmp = GE
		rest = rest[2:]
	case strings.HasPrefix(rest, "<="):
		p.Cmp = LE
		rest = rest[2:]
	case strings.HasPrefix(rest, ">"):
		p.Cmp = GT
		rest = rest[1:]
	case strings.HasPrefix(rest, "<"):
		p.Cmp = LT
		rest = rest[1:]
	default:
		return nil, fmt.Errorf("query: expected comparison operator in %q", s)
	}
	rest = strings.TrimSpace(rest)
	// Bound.
	i := 0
	for i < len(rest) && (rest[i] == '.' || rest[i] >= '0' && rest[i] <= '9') {
		i++
	}
	if i == 0 {
		return nil, fmt.Errorf("query: expected numeric bound in %q", s)
	}
	bound, err := strconv.ParseFloat(rest[:i], 64)
	if err != nil {
		return nil, fmt.Errorf("query: bad bound in %q: %w", s, err)
	}
	p.Bound = bound
	rest = strings.TrimSpace(rest[i:])
	// Bracketed body.
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return nil, fmt.Errorf("query: expected [ ... ] body in %q", s)
	}
	body := strings.TrimSpace(rest[1 : len(rest)-1])
	switch p.Kind {
	case SteadyState:
		pat, err := unquote(body)
		if err != nil {
			return nil, fmt.Errorf("query: %w in %q", err, s)
		}
		p.Pattern = pat
	case Reachability:
		if !strings.HasPrefix(body, "F") {
			return nil, fmt.Errorf("query: reachability body must start with F in %q", s)
		}
		body = strings.TrimSpace(body[1:])
		if !strings.HasPrefix(body, "<=") {
			return nil, fmt.Errorf("query: reachability needs a time bound F<=t in %q", s)
		}
		body = strings.TrimSpace(body[2:])
		j := 0
		for j < len(body) && (body[j] == '.' || body[j] >= '0' && body[j] <= '9') {
			j++
		}
		if j == 0 {
			return nil, fmt.Errorf("query: bad time bound in %q", s)
		}
		h, err := strconv.ParseFloat(body[:j], 64)
		if err != nil || h <= 0 {
			return nil, fmt.Errorf("query: bad time bound in %q", s)
		}
		p.Horizon = h
		pat, err := unquote(strings.TrimSpace(body[j:]))
		if err != nil {
			return nil, fmt.Errorf("query: %w in %q", err, s)
		}
		p.Pattern = pat
	case ThroughputK:
		if body == "" || strings.ContainsAny(body, "\"' ") {
			return nil, fmt.Errorf("query: throughput body must be a bare action name in %q", s)
		}
		p.Pattern = body
	}
	return p, nil
}

func unquote(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected a quoted state pattern")
	}
	inner := s[1 : len(s)-1]
	if inner == "" {
		return "", fmt.Errorf("empty state pattern")
	}
	if strings.Contains(inner, `"`) {
		return "", fmt.Errorf("pattern contains a quote")
	}
	return inner, nil
}

// Result is the outcome of checking a property.
type Result struct {
	Property *Property
	Value    float64
	Holds    bool
}

func (r *Result) String() string {
	verdict := "false"
	if r.Holds {
		verdict = "true"
	}
	return fmt.Sprintf("%s = %s (measured %.6g)", r.Property, verdict, r.Value)
}

// reachSamples is the number of intervals of the reachability CDF grid
// over [0, horizon].
const reachSamples = 200

// Check evaluates a property against a derived state space.
func Check(ss *derive.StateSpace, chain *ctmc.Chain, prop *Property) (*Result, error) {
	var pi []float64
	return check(ss, chain, prop, &pi)
}

// check is Check with the chain's steady state held in *pi: solved on
// first use and read from there after, so CheckAll solves it at most once.
func check(ss *derive.StateSpace, chain *ctmc.Chain, prop *Property, pi *[]float64) (*Result, error) {
	if *pi == nil && (prop.Kind == SteadyState || prop.Kind == ThroughputK) {
		solved, err := chain.SteadyState(ctmc.SteadyStateOptions{})
		if err != nil {
			return nil, err
		}
		*pi = solved
	}
	res := &Result{Property: prop}
	switch prop.Kind {
	case SteadyState:
		sel := ss.StatesMatching(func(term string) bool {
			return strings.Contains(term, prop.Pattern)
		})
		if len(sel) == 0 {
			return nil, fmt.Errorf("query: no state matches %q", prop.Pattern)
		}
		res.Value = chain.Utilization(*pi, sel)
	case Reachability:
		targets := ss.StatesMatching(func(term string) bool {
			return strings.Contains(term, prop.Pattern)
		})
		if len(targets) == 0 {
			return nil, fmt.Errorf("query: no state matches %q", prop.Pattern)
		}
		times := make([]float64, reachSamples+1)
		for i := range times {
			times[i] = prop.Horizon * float64(i) / float64(reachSamples)
		}
		// The initial state is index 0 by construction of Explore.
		cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
		if err != nil {
			return nil, err
		}
		res.Value = cdf.Probs[len(cdf.Probs)-1]
	case ThroughputK:
		tp, err := chain.Throughput(*pi, prop.Pattern)
		if err != nil {
			return nil, err
		}
		res.Value = tp
	}
	res.Holds = prop.Cmp.holds(res.Value, prop.Bound)
	return res, nil
}

// CheckAll parses and evaluates several properties, stopping on the first
// parse/evaluation error. The steady state is solved at most once.
func CheckAll(ss *derive.StateSpace, chain *ctmc.Chain, props []string) ([]*Result, error) {
	out := make([]*Result, 0, len(props))
	var pi []float64
	for _, src := range props {
		p, err := Parse(src)
		if err != nil {
			return nil, err
		}
		r, err := check(ss, chain, p, &pi)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

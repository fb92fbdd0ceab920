// Package derive computes the labelled transition system (the "derivation
// graph") of a PEPA model from Hillston's structured operational semantics,
// including the apparent-rate cooperation law and passive-rate weighting.
//
// The derivation produces a StateSpace: an indexed set of canonical states
// (process terms rendered in canonical syntax) and, for every state, the
// list of outgoing activities with their resolved rates. internal/ctmc
// turns a StateSpace into a generator matrix.
package derive

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/pepa"
	"repro/internal/runctx"
)

// RateSrc records how a transition's numeric rate derives from the
// model's rate constants, so a family of models differing only in rate
// values can be re-rated without re-deriving the state space
// (ctmc.ChainFamily). Exactness matters: re-rated chains must be
// byte-identical to freshly derived ones, so a source is only recorded
// when the derivation provably reproduces the constant's value bit for
// bit — a single active transition synchronized with a single passive
// one keeps exactly the active rate (the apparent-rate ratios are x/x,
// which pepa.Rate.Ratio evaluates to exactly 1, and scaling by 1 is
// exact). Anything else — both-active synchronization, multi-transition
// apparent rates, rate arithmetic — is left opaque and blocks repricing.
type RateSrc struct {
	// Const names the rate constant whose value the rate equals exactly
	// ("" when the rate is not a plain constant reference).
	Const string
	// Fixed marks a rate independent of the rate environment (literal or
	// passive weight): repricing keeps the derived value.
	Fixed bool
}

// Reratable reports whether the rate can be recomputed for a new rate
// environment without re-deriving.
func (s RateSrc) Reratable() bool { return s.Fixed || s.Const != "" }

// Transition is one derivable activity of a process term.
type Transition struct {
	Action string
	Rate   pepa.Rate
	Target pepa.Process
	Src    RateSrc
}

// Deriver computes transitions of process terms under a model's
// definitions, memoizing by canonical term syntax.
type Deriver struct {
	model *pepa.Model
	memo  map[string][]Transition
	// key is the buffer every memo probe renders its term into; a key
	// string is allocated only when a term is derived for the first time.
	key   []byte
	depth int
}

// NewDeriver creates a deriver for the model. The model should have passed
// pepa.Check.
func NewDeriver(m *pepa.Model) *Deriver {
	return &Deriver{model: m, memo: map[string][]Transition{}}
}

const maxConstantDepth = 10000

// Transitions returns the outgoing activities of the term p, resolving
// constants through the model's definitions. Transitions with identical
// (action, target) are NOT merged here — the multi-transition structure is
// preserved so apparent rates aggregate correctly; ctmc merges when
// building the generator.
func (d *Deriver) Transitions(p pepa.Process) ([]Transition, error) {
	d.key = pepa.AppendString(d.key[:0], p)
	if ts, ok := d.memo[string(d.key)]; ok {
		return ts, nil
	}
	key := string(d.key) // derive reuses d.key for the sub-terms
	ts, err := d.derive(p)
	if err != nil {
		return nil, err
	}
	d.memo[key] = ts
	return ts, nil
}

// derive applies the SOS rule of p's outermost operator. Derived
// cooperation and hiding terms share their parent's action set rather
// than copy it: the set is already normalized, and no term's set is
// mutated once built.
func (d *Deriver) derive(p pepa.Process) ([]Transition, error) {
	switch t := p.(type) {
	case *pepa.Prefix:
		r, err := t.Rate.Eval(d.model.Rates)
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
		return []Transition{{Action: t.Action, Rate: r, Target: t.Cont, Src: src}}, nil

	case *pepa.Choice:
		left, err := d.Transitions(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := d.Transitions(t.Right)
		if err != nil {
			return nil, err
		}
		out := make([]Transition, 0, len(left)+len(right))
		out = append(out, left...)
		out = append(out, right...)
		return out, nil

	case *pepa.Const:
		def, ok := d.model.Defs[t.Name]
		if !ok {
			return nil, fmt.Errorf("derive: undefined process %q", t.Name)
		}
		d.depth++
		if d.depth > maxConstantDepth {
			return nil, fmt.Errorf("derive: constant resolution exceeded depth %d (unguarded recursion through %q?)", maxConstantDepth, t.Name)
		}
		ts, err := d.Transitions(def.Body)
		d.depth--
		return ts, err

	case *pepa.Hide:
		inner, err := d.Transitions(t.Proc)
		if err != nil {
			return nil, err
		}
		out := make([]Transition, len(inner))
		for i, tr := range inner {
			action := tr.Action
			if pepa.Contains(t.Set, action) {
				action = pepa.Tau
			}
			out[i] = Transition{Action: action, Rate: tr.Rate, Target: &pepa.Hide{Proc: tr.Target, Set: t.Set}, Src: tr.Src}
		}
		return out, nil

	case *pepa.Coop:
		return d.deriveCoop(t)

	default:
		return nil, fmt.Errorf("derive: unknown process node %T", p)
	}
}

func (d *Deriver) deriveCoop(c *pepa.Coop) ([]Transition, error) {
	left, err := d.Transitions(c.Left)
	if err != nil {
		return nil, err
	}
	right, err := d.Transitions(c.Right)
	if err != nil {
		return nil, err
	}
	// Size the result from the transition counts: every move outside the
	// set, plus, per shared action, one move for each pair of transitions.
	n := len(left) + len(right)
	for _, action := range c.Set {
		countL, countR := count(left, action), count(right, action)
		n += countL*countR - countL - countR
	}
	out := make([]Transition, 0, n)
	// Independent moves: actions outside the cooperation set interleave.
	for _, tr := range left {
		if pepa.Contains(c.Set, tr.Action) {
			continue
		}
		out = append(out, Transition{
			Action: tr.Action,
			Rate:   tr.Rate,
			Target: &pepa.Coop{Left: tr.Target, Right: c.Right, Set: c.Set},
			Src:    tr.Src,
		})
	}
	for _, tr := range right {
		if pepa.Contains(c.Set, tr.Action) {
			continue
		}
		out = append(out, Transition{
			Action: tr.Action,
			Rate:   tr.Rate,
			Target: &pepa.Coop{Left: c.Left, Right: tr.Target, Set: c.Set},
			Src:    tr.Src,
		})
	}
	// Shared moves: the cooperation rate law over apparent rates.
	for _, action := range c.Set {
		raL, err := apparent(left, action)
		if err != nil {
			return nil, fmt.Errorf("derive: apparent rate of %q in %s: %w", action, c.Left, err)
		}
		raR, err := apparent(right, action)
		if err != nil {
			return nil, fmt.Errorf("derive: apparent rate of %q in %s: %w", action, c.Right, err)
		}
		if raL.IsZero() || raR.IsZero() {
			continue // one side cannot participate: the action blocks
		}
		if raL.Passive && raR.Passive {
			return nil, fmt.Errorf("derive: action %q is passive on both sides of a cooperation; the model never resolves its rate", action)
		}
		// Provenance for the single-active/single-passive shape: with one
		// transition per side the apparent-rate ratios are x/x (exactly 1),
		// the min picks the active side, and the cooperation rate equals the
		// active transition's rate bit for bit — so its source carries over.
		// The singleton condition is structural (transition counts), never a
		// value comparison: r + ε == r for small ε would fool a value check.
		singleton := count(left, action) == 1 && count(right, action) == 1
		for _, tl := range left {
			if tl.Action != action {
				continue
			}
			for _, tr := range right {
				if tr.Action != action {
					continue
				}
				rate := pepa.CoopRate(tl.Rate, raL, tr.Rate, raR)
				var src RateSrc
				switch {
				case singleton && raR.Passive && !raL.Passive:
					src = tl.Src
				case singleton && raL.Passive && !raR.Passive:
					src = tr.Src
				}
				out = append(out, Transition{
					Action: action,
					Rate:   rate,
					Target: &pepa.Coop{Left: tl.Target, Right: tr.Target, Set: c.Set},
					Src:    src,
				})
			}
		}
	}
	return out, nil
}

// count returns how many transitions in ts perform the action.
func count(ts []Transition, action string) int {
	n := 0
	for _, t := range ts {
		if t.Action == action {
			n++
		}
	}
	return n
}

// apparent computes the apparent rate of an action among a transition list:
// the sum of the rates of all transitions with that action.
func apparent(ts []Transition, action string) (pepa.Rate, error) {
	var total pepa.Rate
	for _, t := range ts {
		if t.Action != action {
			continue
		}
		sum, err := total.Add(t.Rate)
		if err != nil {
			return pepa.Rate{}, err
		}
		total = sum
	}
	return total, nil
}

// ApparentRate exposes the apparent rate r_a(P) of an action in a term,
// used by tests and by the diagram renderer.
func (d *Deriver) ApparentRate(p pepa.Process, action string) (pepa.Rate, error) {
	ts, err := d.Transitions(p)
	if err != nil {
		return pepa.Rate{}, err
	}
	return apparent(ts, action)
}

// Activity is a resolved transition between indexed states.
type Activity struct {
	Action string
	Rate   float64 // always active once the full system derives
	From   int
	To     int
	// Src is the rate's provenance for re-rating without re-deriving
	// (see RateSrc); the zero value means opaque.
	Src RateSrc
}

// StateSpace is the derivation graph of a model's system equation.
type StateSpace struct {
	Model  *pepa.Model
	States []string       // canonical term syntax, index = state id
	Index  map[string]int // reverse lookup
	Trans  [][]Activity   // Trans[s] = outgoing activities of state s
	// ActionTypes is the sorted set of action types occurring on any
	// transition.
	ActionTypes []string
}

// Options bounds the exploration.
type Options struct {
	MaxStates int // default 1 << 20
	// Aggregate lumps states that are permutations of interchangeable
	// parallel components (see Canonicalize). The lumped chain is
	// Markov-equivalent for measures on canonical states and can be
	// exponentially smaller for replicated components.
	Aggregate bool
}

// ErrStateSpaceTooLarge is wrapped in the error returned when exploration
// exceeds Options.MaxStates — PEPA's "state-space explosion" guard.
var ErrStateSpaceTooLarge = fmt.Errorf("derive: state space exceeds configured bound")

// Explore derives the full state space of the model's system equation by
// breadth-first search. Every reachable state must resolve all passive
// rates (a surviving passive activity means the model is incomplete and is
// reported as an error, matching the PEPA workbench).
func Explore(m *pepa.Model, opt Options) (*StateSpace, error) {
	return ExploreCtx(context.Background(), m, opt)
}

// ExploreCtx is Explore with cooperative cancellation: ctx is polled
// once per dequeued state (each dequeue derives that state's full
// transition fan-out, so the poll is noise). An interrupted exploration
// returns a *runctx.ErrCanceled reporting the states discovered so far.
// An uncancelled context leaves the BFS order — and hence the state
// numbering — bit-identical to Explore.
func ExploreCtx(ctx context.Context, m *pepa.Model, opt Options) (*StateSpace, error) {
	if opt.MaxStates <= 0 {
		opt.MaxStates = 1 << 20
	}
	if m.System == nil {
		return nil, fmt.Errorf("derive: model has no system equation")
	}
	d := NewDeriver(m)
	ss := &StateSpace{Model: m, Index: map[string]int{}}
	actionSet := map[string]bool{}

	// The index is probed through one reused buffer, so a state's key
	// string is allocated only when the state is new.
	var buf []byte
	addState := func(p pepa.Process) (int, error) {
		buf = pepa.AppendString(buf[:0], p)
		if id, ok := ss.Index[string(buf)]; ok {
			return id, nil
		}
		if len(ss.States) >= opt.MaxStates {
			return 0, fmt.Errorf("%w (%d states)", ErrStateSpaceTooLarge, opt.MaxStates)
		}
		id := len(ss.States)
		key := string(buf)
		ss.Index[key] = id
		ss.States = append(ss.States, key)
		ss.Trans = append(ss.Trans, nil)
		return id, nil
	}

	canon := func(p pepa.Process) pepa.Process { return p }
	if opt.Aggregate {
		canon = Canonicalize
	}
	type queued struct {
		id   int
		term pepa.Process
	}
	start := canon(m.System)
	startID, err := addState(start)
	if err != nil {
		return nil, err
	}
	queue := []queued{{id: startID, term: start}}
	for len(queue) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, runctx.New("derive.explore", cerr, len(ss.States), 0, "states")
		}
		cur := queue[0]
		queue = queue[1:]
		ts, err := d.Transitions(cur.term)
		if err != nil {
			return nil, err
		}
		ss.Trans[cur.id] = make([]Activity, 0, len(ts))
		for _, tr := range ts {
			if tr.Rate.Passive {
				return nil, fmt.Errorf("derive: state %q offers action %q at an unresolved passive rate; cooperation with an active partner is missing", ss.States[cur.id], tr.Action)
			}
			if tr.Rate.Value <= 0 {
				return nil, fmt.Errorf("derive: state %q offers action %q at non-positive rate %g", ss.States[cur.id], tr.Action, tr.Rate.Value)
			}
			known := len(ss.States)
			target := canon(tr.Target)
			to, err := addState(target)
			if err != nil {
				return nil, err
			}
			if to == known { // newly discovered
				queue = append(queue, queued{id: to, term: target})
			}
			ss.Trans[cur.id] = append(ss.Trans[cur.id], Activity{
				Action: tr.Action, Rate: tr.Rate.Value, From: cur.id, To: to, Src: tr.Src,
			})
			actionSet[tr.Action] = true
		}
	}
	for a := range actionSet {
		ss.ActionTypes = append(ss.ActionTypes, a)
	}
	sort.Strings(ss.ActionTypes)
	return ss, nil
}

// NumStates returns the number of reachable states.
func (ss *StateSpace) NumStates() int { return len(ss.States) }

// NumTransitions returns the total number of activities in the graph.
func (ss *StateSpace) NumTransitions() int {
	var n int
	for _, ts := range ss.Trans {
		n += len(ts)
	}
	return n
}

// TotalExitRate returns the sum of outgoing rates of state s.
func (ss *StateSpace) TotalExitRate(s int) float64 {
	var r float64
	for _, t := range ss.Trans[s] {
		r += t.Rate
	}
	return r
}

// Deadlocks returns the (sorted) ids of absorbing states — states with no
// outgoing activities.
func (ss *StateSpace) Deadlocks() []int {
	var out []int
	for s, ts := range ss.Trans {
		if len(ts) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// StatesMatching returns ids of states whose canonical syntax satisfies the
// predicate, in ascending order. Robustness analyses use this to mark
// "machine finished" target states.
func (ss *StateSpace) StatesMatching(pred func(term string) bool) []int {
	var out []int
	for s, term := range ss.States {
		if pred(term) {
			out = append(out, s)
		}
	}
	return out
}

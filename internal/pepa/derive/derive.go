// Package derive computes the labelled transition system (the "derivation
// graph") of a PEPA model from Hillston's structured operational semantics,
// including the apparent-rate cooperation law and passive-rate weighting.
//
// The derivation produces a StateSpace: an indexed set of canonical states
// (process terms rendered in canonical syntax) and, for every state, the
// list of outgoing activities with their resolved rates. internal/ctmc
// turns a StateSpace into a generator matrix.
//
// A model is compiled once (walk.go): each sequential component into a
// local-derivative table (Locals), the cooperation and hiding structure
// into a fixed tree, and a state into a small vector of local state ids.
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
	MaxStates int // Explore's default 1 << 20; zero leaves a Walker unbounded
	// Aggregate lumps states that are permutations of interchangeable
	// parallel components (see aggregate.go). The lumped chain is
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
	w, err := NewWalker(m, opt)
	if err != nil {
		return nil, err
	}
	actions := w.c.locals.actions
	seen := make([]bool, len(actions))
	ss := &StateSpace{Model: m}
	// Activities are cut from shared chunks, each state's slice capped so
	// an append to it cannot reach its neighbour's. A new chunk is sized
	// for the states still queued at the mean fan-out so far, which leaves
	// little unused once the queue drains.
	chunk := make([]Activity, 0, 16)
	total := 0
	for s := 0; s < w.NumStates(); s++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, runctx.New("derive.explore", cerr, w.NumStates(), 0, "states")
		}
		a, b, err := w.derive(s)
		if err != nil {
			return nil, err
		}
		if n := b - a; cap(chunk)-len(chunk) < n {
			queued := (w.NumStates() - s) * (total/max(s, 1) + 1)
			chunk = make([]Activity, 0, max(n, min(2*cap(chunk), queued, 1<<16)))
		}
		total += b - a
		start := len(chunk)
		for i := a; i < b; i++ {
			mv := &w.moves[i]
			if mv.rate.Passive {
				return nil, fmt.Errorf("derive: state %q offers action %q at an unresolved passive rate; cooperation with an active partner is missing", w.strs[s], actions[mv.act])
			}
			if mv.rate.Value <= 0 {
				return nil, fmt.Errorf("derive: state %q offers action %q at non-positive rate %g", w.strs[s], actions[mv.act], mv.rate.Value)
			}
			to, err := w.target(s, mv)
			if err != nil {
				return nil, err
			}
			chunk = append(chunk, Activity{Action: actions[mv.act], Rate: mv.rate.Value, From: s, To: to, Src: mv.src})
			seen[mv.act] = true
		}
		ss.Trans = append(grow(ss.Trans, 1), chunk[start:len(chunk):len(chunk)])
	}
	ss.States = w.strs
	if w.byKey != nil {
		ss.Index = w.byKey
	} else {
		ss.Index = make(map[string]int, len(ss.States))
		for id, s := range ss.States {
			ss.Index[s] = id
		}
	}
	for a, ok := range seen {
		if ok {
			ss.ActionTypes = append(ss.ActionTypes, actions[a])
		}
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

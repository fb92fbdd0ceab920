package derive

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotReratable is wrapped in the error Reprice returns when some
// activity's rate has no recorded provenance — the model's structure
// depends on rate expressions the provenance pass leaves opaque (rate
// arithmetic, both-active synchronization, multi-transition apparent
// rates). Such a model can only be re-rated by deriving it again, so
// family-backed sweeps (ctmc.ChainFamily, experiment.RateSweep, the
// robustness study) reject it up front.
var ErrNotReratable = errors.New("derive: state space is not reratable")

// Reprice returns a copy of the state space with every activity's rate
// re-evaluated against a new rate-constant environment, without
// re-deriving: the derivation graph of a PEPA model is structure-driven
// (BFS over canonical term strings), so as long as every rate stays
// positive the repriced graph has exactly the states, numbering, and
// transitions of a fresh Explore of the re-rated model — and, because
// RateSrc is only recorded where the cooperation law reproduces the
// constant's value exactly, the rates are bit-identical to that fresh
// derivation too.
//
// States, Index, and ActionTypes are shared with the prototype (they are
// immutable by convention); only the Trans slices are rebuilt. The Model
// pointer still names the prototype model, whose Rates map reflects the
// prototype values, not env. It errors when an activity is not reratable
// (ErrNotReratable), a constant is missing from env, or a new rate is
// not finite and positive (zero would change reachability, not just
// weights; NaN and ±Inf have no CTMC meaning).
func Reprice(proto *StateSpace, env map[string]float64) (*StateSpace, error) {
	out := &StateSpace{
		Model:       proto.Model,
		States:      proto.States,
		Index:       proto.Index,
		Trans:       make([][]Activity, len(proto.Trans)),
		ActionTypes: proto.ActionTypes,
	}
	for s, ts := range proto.Trans {
		if ts == nil {
			continue
		}
		nts := make([]Activity, len(ts))
		for i, a := range ts {
			switch {
			case a.Src.Const != "":
				v, ok := env[a.Src.Const]
				if !ok {
					return nil, fmt.Errorf("derive: Reprice: rate constant %q missing from environment", a.Src.Const)
				}
				if !(v > 0) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("derive: Reprice: rate constant %q = %g is not finite and positive", a.Src.Const, v)
				}
				a.Rate = v
			case a.Src.Fixed:
				// Structure-fixed rate: keep the derived value.
			default:
				return nil, proto.opaque(s, a.Action)
			}
			nts[i] = a
		}
		out.Trans[s] = nts
	}
	return out, nil
}

// CheckReratable reports whether every activity in the state space
// carries rate provenance, i.e. whether Reprice can succeed for a
// complete environment: nil if so, else an error wrapping
// ErrNotReratable that names the first opaque state and activity.
// ChainFamily checks this once at construction instead of failing on the
// first member.
func (ss *StateSpace) CheckReratable() error {
	for s, ts := range ss.Trans {
		for _, a := range ts {
			if !a.Src.Reratable() {
				return ss.opaque(s, a.Action)
			}
		}
	}
	return nil
}

func (ss *StateSpace) opaque(s int, action string) error {
	return fmt.Errorf("%w: state %d (%s) activity %q has opaque rate provenance", ErrNotReratable, s, ss.States[s], action)
}

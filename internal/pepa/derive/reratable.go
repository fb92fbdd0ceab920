package derive

import (
	"errors"
	"fmt"
)

// ErrNotReratable is wrapped in the error CheckReratable returns when
// some activity's rate has no recorded provenance — the model's structure
// depends on rate expressions the provenance pass leaves opaque (rate
// arithmetic, both-active synchronization, multi-transition apparent
// rates). Such a model can only be re-rated by deriving it again, so
// family-backed sweeps (ctmc.ChainFamily, experiment.RateSweep, the
// robustness study) reject it up front.
var ErrNotReratable = errors.New("derive: state space is not reratable")

// CheckReratable reports whether every activity in the state space
// carries rate provenance, i.e. whether its rates can be re-evaluated
// against a new rate-constant environment without deriving again: nil if
// so, else an error wrapping ErrNotReratable that names the first opaque
// state and activity. ChainFamily checks this once at construction
// instead of failing on the first member.
func (ss *StateSpace) CheckReratable() error {
	for s, ts := range ss.Trans {
		for _, a := range ts {
			if !a.Src.Reratable() {
				return fmt.Errorf("%w: state %d (%s) activity %q has opaque rate provenance", ErrNotReratable, s, ss.States[s], a.Action)
			}
		}
	}
	return nil
}

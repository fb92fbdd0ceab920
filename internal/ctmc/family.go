package ctmc

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/numeric/poisson"
	"repro/internal/numeric/sparse"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

// ChainFamily amortizes chain construction across models that share one
// derivation structure and differ only in rate-constant values — the
// shape of a perturbation sweep, where every sample re-rates the same
// machine model. The family derives the prototype once, memoizes the
// COO→CSR assembly permutation (sparse.AssemblyPlan), and builds each
// member with an O(nnz) rate evaluation plus gather instead of a fresh
// BFS derivation and counting sort.
//
// Exactness: PEPA derivation is structure-driven, and rate provenance
// (derive.RateSrc) is only recorded where re-evaluation provably
// reproduces the fresh derivation's bits, so every member chain is
// byte-identical — Q, exit rates, action rates — to
// FromStateSpace(Explore(model-with-those-rates)). The Float64bits
// battery in family_test.go pins this.
//
// Members share the family's Poisson weight tables (pure functions of
// (lambda, eps), so cross-member reuse is always sound). They do NOT
// share uniformized matrices, transposes, or kernel plans: those are
// value-dependent operators keyed to each member's own Q.
//
// A ChainFamily is safe for concurrent use; member chains are
// independent Chains with the usual concurrency contract.
type ChainFamily struct {
	ss          *derive.StateSpace
	plan        *sparse.AssemblyPlan
	fingerprint string
	nnz         int // COO pattern entries: transitions + one diagonal per state

	mu      sync.Mutex
	weights map[weightKey]*poisson.Weights
}

// NewChainFamily builds a family over a derived prototype state space.
// It errors (wrapping derive.ErrNotReratable, naming the first opaque
// state and activity) when the prototype carries opaque rate provenance.
func NewChainFamily(ss *derive.StateSpace) (*ChainFamily, error) {
	if err := ss.CheckReratable(); err != nil {
		return nil, fmt.Errorf("ctmc: %w", err)
	}
	n := ss.NumStates()
	// Replay FromStateSpace's exact COO entry order — per state: each
	// transition, then the diagonal — so the memoized permutation gathers
	// members bit-identically to the fresh ToCSR path.
	coo := sparse.NewCOO(n, n, ss.NumTransitions()+n)
	for s := 0; s < n; s++ {
		var exit float64
		for _, tr := range ss.Trans[s] {
			coo.Add(s, tr.To, tr.Rate)
			exit += tr.Rate
		}
		coo.Add(s, s, -exit)
	}
	return &ChainFamily{
		ss:          ss,
		plan:        coo.Plan(),
		fingerprint: StructuralFingerprint(ss.Model),
		nnz:         coo.NNZ(),
	}, nil
}

// StateSpace returns the prototype state space (states, numbering, and
// transition structure shared by every member).
func (f *ChainFamily) StateSpace() *derive.StateSpace { return f.ss }

// ChainForRates builds the member chain for a rate-constant environment:
// every Const-provenance activity is re-valued from env (validated like
// derive.Reprice — missing, non-positive, or non-finite constants
// error), Fixed ones keep the prototype's value, and the generator is
// assembled through the memoized plan. The result is byte-identical to
// deriving the re-rated model from scratch and calling FromStateSpace.
func (f *ChainFamily) ChainForRates(env map[string]float64) (*Chain, error) {
	n := f.ss.NumStates()
	vals := make([]float64, f.nnz)
	exit := make([]float64, n)
	actRate := map[string][]float64{}
	for _, a := range f.ss.ActionTypes {
		actRate[a] = make([]float64, n)
	}
	idx := 0
	for s := 0; s < n; s++ {
		for _, tr := range f.ss.Trans[s] {
			r := tr.Rate
			switch {
			case tr.Src.Const != "":
				v, ok := env[tr.Src.Const]
				if !ok {
					return nil, fmt.Errorf("ctmc: family member: rate constant %q missing from environment", tr.Src.Const)
				}
				if !(v > 0) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("ctmc: family member: rate constant %q = %g is not finite and positive", tr.Src.Const, v)
				}
				r = v
			case tr.Src.Fixed:
				// Structure-fixed rate: the prototype's value is exact.
			default:
				return nil, fmt.Errorf("ctmc: %w: state %d activity %q has opaque rate provenance", derive.ErrNotReratable, s, tr.Action)
			}
			vals[idx] = r
			idx++
			exit[s] += r
			actRate[tr.Action][s] += r
		}
		vals[idx] = -exit[s]
		idx++
	}
	return &Chain{
		N: n, Q: f.plan.Gather(vals), ExitRate: exit, ActionRate: actRate,
		Initial: 0, family: f,
	}, nil
}

// ChainFor builds the member chain for a full model, first checking that
// the model is structurally a member of this family (same definitions,
// rate-constant names, and system equation — rate values free). The
// check catches the silent-wrong-answer hazard of gathering one model's
// rates through another model's assembly permutation.
func (f *ChainFamily) ChainFor(m *pepa.Model) (*Chain, error) {
	if StructuralFingerprint(m) != f.fingerprint {
		return nil, fmt.Errorf("ctmc: model is not a member of this chain family (structural fingerprint mismatch)")
	}
	return f.ChainForRates(m.Rates)
}

// StructuralFingerprint fingerprints the rate-independent structure of a
// model: process definitions (bodies print rate constants by name, so
// re-rated members collide as intended), the set of rate-constant names,
// and the system equation. Models with equal fingerprints derive the
// same state graph whenever their rates are positive — which
// ChainForRates enforces.
func StructuralFingerprint(m *pepa.Model) string {
	var b strings.Builder
	names := append([]string(nil), m.DefOrder...)
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "def %s = %s;\n", name, m.Defs[name].Body)
	}
	rateNames := append([]string(nil), m.RateOrder...)
	sort.Strings(rateNames)
	fmt.Fprintf(&b, "rates %s;\n", strings.Join(rateNames, ","))
	if m.System != nil {
		fmt.Fprintf(&b, "system %s", m.System)
	}
	return b.String()
}

// poisson returns the family-shared weight table for the key, if any
// member computed it already. Weight tables depend only on (lambda, eps),
// never on the matrix, so sharing across members is exact.
func (f *ChainFamily) poisson(key weightKey) (*poisson.Weights, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.weights[key]
	return w, ok
}

// storePoisson publishes a member's freshly computed weight table,
// bounded like the per-chain memo.
func (f *ChainFamily) storePoisson(key weightKey, w *poisson.Weights) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.weights) >= maxWeightTables {
		f.weights = nil
	}
	if f.weights == nil {
		f.weights = make(map[weightKey]*poisson.Weights)
	}
	f.weights[key] = w
}

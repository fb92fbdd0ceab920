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
// The batched passage solver, FirstPassageCDFs, keeps the Poisson weight
// tables it computes in the family (pure functions of (lambda, eps), so
// reuse across calls and members is always sound). Member chains share
// nothing with the family or with each other: like any Chain, each solve
// derives its operators from the member's own Q and keeps none of them.
//
// A ChainFamily is safe for concurrent use; member chains are
// independent Chains with the usual concurrency contract.
type ChainFamily struct {
	ss          *derive.StateSpace
	plan        *sparse.AssemblyPlan
	fingerprint string
	nnz         int // COO pattern entries: transitions + one diagonal per state
	// rateNames are the Const-provenance constants, sorted; rateOf[k] is
	// the index into rateNames of the rate of the k-th transition (in
	// state, then transition order), or -1 for a Fixed rate.
	rateNames []string
	rateOf    []int32

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
	index := map[string]int32{}
	var names []string
	for s := 0; s < n; s++ {
		var exit float64
		for _, tr := range ss.Trans[s] {
			coo.Add(s, tr.To, tr.Rate)
			exit += tr.Rate
			if c := tr.Src.Const; c != "" {
				if _, ok := index[c]; !ok {
					index[c] = 0
					names = append(names, c)
				}
			}
		}
		coo.Add(s, s, -exit)
	}
	sort.Strings(names)
	for i, c := range names {
		index[c] = int32(i)
	}
	rateOf := make([]int32, 0, ss.NumTransitions())
	for s := 0; s < n; s++ {
		for _, tr := range ss.Trans[s] {
			i := int32(-1)
			if tr.Src.Const != "" {
				i = index[tr.Src.Const]
			}
			rateOf = append(rateOf, i)
		}
	}
	return &ChainFamily{
		ss:          ss,
		plan:        coo.Plan(),
		fingerprint: StructuralFingerprint(ss.Model),
		nnz:         coo.NNZ(),
		rateNames:   names,
		rateOf:      rateOf,
	}, nil
}

// StateSpace returns the prototype state space (states, numbering, and
// transition structure shared by every member).
func (f *ChainFamily) StateSpace() *derive.StateSpace { return f.ss }

// RateNames returns the rate constants a member re-values: the constants
// with Const provenance in the prototype, sorted. FirstPassageCDFs takes
// each member's rates in this order.
func (f *ChainFamily) RateNames() []string { return append([]string(nil), f.rateNames...) }

// ChainForRates builds the member chain for a rate-constant environment:
// every Const-provenance activity is re-valued from env (missing,
// non-positive, or non-finite constants error), Fixed ones keep the
// prototype's value, and the generator is
// assembled through the memoized plan. The result is byte-identical to
// deriving the re-rated model from scratch and calling FromStateSpace.
func (f *ChainFamily) ChainForRates(env map[string]float64) (*Chain, error) {
	rates := make([]float64, len(f.rateNames))
	for c, name := range f.rateNames {
		v, ok := env[name]
		if !ok {
			return nil, fmt.Errorf("ctmc: family member: rate constant %q missing from environment", name)
		}
		if err := checkRate(name, v); err != nil {
			return nil, fmt.Errorf("ctmc: family member: %w", err)
		}
		rates[c] = v
	}
	n := f.ss.NumStates()
	vals := make([]float64, f.nnz)
	exit := make([]float64, n)
	f.memberValues(vals, exit, rates)
	actRate := map[string][]float64{}
	for _, a := range f.ss.ActionTypes {
		actRate[a] = make([]float64, n)
	}
	idx := 0
	for s := 0; s < n; s++ {
		for _, tr := range f.ss.Trans[s] {
			actRate[tr.Action][s] += vals[idx]
			idx++
		}
		idx++ // the diagonal entry
	}
	return &Chain{
		N: n, Q: f.plan.Gather(vals), ExitRate: exit, ActionRate: actRate,
	}, nil
}

// checkRate validates one member rate: finite and positive (a zero rate
// would change reachability, not just weights).
func checkRate(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("rate constant %q = %g is not finite and positive", name, v)
	}
	return nil
}

// memberValues fills the generator's COO entry values of one member —
// vals, aligned with the assembly plan's input — and its per-state exit
// rates, from the member's rates in RateNames order. Per state: each
// transition's rate (Fixed ones keep the prototype's value), then the
// diagonal -exit, with exit summed in transition order exactly as
// FromStateSpace sums it.
func (f *ChainFamily) memberValues(vals, exit, rates []float64) {
	idx, k := 0, 0
	for s := range f.ss.Trans {
		var e float64
		for _, tr := range f.ss.Trans[s] {
			r := tr.Rate
			if c := f.rateOf[k]; c >= 0 {
				r = rates[c]
			}
			k++
			vals[idx] = r
			idx++
			e += r
		}
		vals[idx] = -e
		idx++
		exit[s] = e
	}
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

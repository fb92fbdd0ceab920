package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/numeric/sparse"
	"repro/internal/obs"
	"repro/internal/pepa/derive"
	"repro/internal/runctx"
)

// ChainFamily amortizes chain construction across models that share one
// derivation structure and differ only in rate-constant values — the
// shape of a perturbation sweep, where every sample re-rates the same
// machine model. The family derives the prototype once, plans the row
// assembly of its generator once (sparse.AssemblyPlan), and builds each
// member with an O(nnz) rate evaluation plus gather instead of a fresh
// BFS derivation and per-row sort.
//
// Exactness: PEPA derivation is structure-driven, and rate provenance
// (derive.RateSrc) is only recorded where re-evaluation provably
// reproduces the fresh derivation's bits, so every member chain is
// byte-identical — Q, exit rates, action rates — to
// FromStateSpace(Explore(model-with-those-rates)). The Float64bits
// battery in family_test.go pins this.
//
// The batched solvers, SteadyStates and FirstPassageCDFs, build no member
// chain. FirstPassageCDFs keeps the Poisson weight tables it computes in
// the family (pure functions of (lambda, eps), so reuse across calls and
// members is always sound), and SteadyStates plans the transpose of the
// family's slot pattern once. Member chains share nothing with the family
// or with each other: like any Chain, each solve derives its operators
// from the member's own Q and keeps none of them.
//
// A ChainFamily is safe for concurrent use; member chains are
// independent Chains with the usual concurrency contract.
type ChainFamily struct {
	ss   *derive.StateSpace
	plan *sparse.AssemblyPlan // entries: per state, its transitions then the diagonal
	// rateNames are the Const-provenance constants, sorted; rateOf[k] is
	// the index into rateNames of the rate of the k-th transition (in
	// state, then transition order), or -1 for a Fixed rate.
	rateNames []string
	rateOf    []int32
	weights   weightStore // FirstPassageCDFs' Poisson tables
	// qtSlots is the slot pattern's transpose, planned by the first
	// SteadyStates call: entry e of a member's Qᵀ takes the value of
	// slot qtSlots.Val[e].
	qtOnce  sync.Once
	qtSlots *sparse.CSR
}

// NewChainFamily builds a family over a derived prototype state space.
// It errors (wrapping derive.ErrNotReratable, naming the first opaque
// state and activity) when the prototype carries opaque rate provenance.
func NewChainFamily(ss *derive.StateSpace) (*ChainFamily, error) {
	if err := ss.CheckReratable(); err != nil {
		return nil, fmt.Errorf("ctmc: %w", err)
	}
	n := ss.NumStates()
	// FromStateSpace's exact entry order — per state: each transition,
	// then the diagonal — so the plan gathers members bit-identically to
	// the fresh row assembly.
	rowPtr := make([]int, n+1)
	col := make([]int, 0, ss.NumTransitions()+n)
	index := map[string]int32{}
	var names []string
	for s := 0; s < n; s++ {
		for _, tr := range ss.Trans[s] {
			col = append(col, tr.To)
			if c := tr.Src.Const; c != "" {
				if _, ok := index[c]; !ok {
					index[c] = 0
					names = append(names, c)
				}
			}
		}
		col = append(col, s)
		rowPtr[s+1] = len(col)
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
		ss:        ss,
		plan:      sparse.NewAssemblyPlan(n, n, rowPtr, col),
		rateNames: names,
		rateOf:    rateOf,
		weights:   weightStore{mu: new(sync.Mutex)},
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
	vals := make([]float64, f.plan.NNZ())
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

// checkRates validates the members' rate rows of a batched solve: one
// rate per rate constant, each as ChainForRates validates it.
func (f *ChainFamily) checkRates(rates [][]float64) error {
	for k, row := range rates {
		if len(row) != len(f.rateNames) {
			return fmt.Errorf("ctmc: family member %d has %d rates for %d rate constants", k, len(row), len(f.rateNames))
		}
		for c, v := range row {
			if err := checkRate(f.rateNames[c], v); err != nil {
				return fmt.Errorf("ctmc: family member %d: %w", k, err)
			}
		}
	}
	return nil
}

// checkRate validates one member rate: finite and positive (a zero rate
// would change reachability, not just weights).
func checkRate(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("rate constant %q = %g is not finite and positive", name, v)
	}
	return nil
}

// memberValues fills the generator's entry values of one member — vals,
// aligned with the assembly plan's input — and its per-state exit
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

// ActionRates writes into dst, one entry per state, the total rate at
// which a member fires action: each state's transitions of that action
// summed in transition order, bit for bit the member chain's
// ActionRate[action]. rates are the member's rate constants in RateNames
// order, as SteadyStates takes them. An action no state offers yields
// zeros.
func (f *ChainFamily) ActionRates(dst, rates []float64, action string) {
	clear(dst)
	k := 0
	for s, trs := range f.ss.Trans {
		for _, tr := range trs {
			if tr.Action == action {
				r := tr.Rate
				if c := f.rateOf[k]; c >= 0 {
					r = rates[c]
				}
				dst[s] += r
			}
			k++
		}
	}
}

// SteadyStates solves the stationary distribution of many family members
// in one call. rates[k] holds member k's rate constants in RateNames
// order, validated as ChainForRates validates them. Members are solved in
// order, and visit(k, pi) receives member k's distribution,
// Float64bits-identical to ChainForRates(env_k).SteadyStateCtx(ctx, opt),
// from the calling goroutine; pi is the member's own to keep. When the
// call fails, the members visited are those before the one that failed.
//
// No member builds a Chain. Each member's Q is laid on the family's
// assembly slot pattern (sparse.AssemblyPlan.SlotSums) and its Qᵀ on that
// pattern's transpose, planned once per family, and one workspace serves
// every member, so a member that Gauss–Seidel accepts allocates only its
// pi. The escalation chain is the one SteadyState runs. The pattern keeps
// a slot whose sum is exactly zero — a diagonal cancelled by self-loops —
// as an explicit +0 the member chain drops; each rung adds it to a sum
// that is never -0 as a ±0 term, or skips it as a zero iterate entry or a
// zero quotient, so every rung's bits match the member chain's.
//
// reg, when non-nil, receives each member's stage metrics, as a chain's
// Obs does. A canceled ctx yields a *runctx.ErrCanceled counting the
// members finished.
func (f *ChainFamily) SteadyStates(ctx context.Context, rates [][]float64, opt SteadyStateOptions, reg *obs.Registry, visit func(member int, pi []float64)) error {
	if err := f.checkRates(rates); err != nil {
		return err
	}
	n := f.ss.NumStates()
	rowPtr, col := f.plan.Pattern()
	f.qtOnce.Do(func() {
		// Transposing the slot indices themselves puts each entry of Qᵀ
		// where CSR.Transpose puts it in a member chain's Qᵀ.
		idx := make([]float64, len(col))
		for e := range idx {
			idx[e] = float64(e)
		}
		f.qtSlots = (&sparse.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: col, Val: idx}).Transpose()
	})
	vals, slot, slotT := make([]float64, f.plan.NNZ()), make([]float64, len(col)), make([]float64, len(col))
	s := &steadySolve{
		q:    &sparse.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: col, Val: slot},
		qt:   &sparse.CSR{Rows: n, Cols: n, RowPtr: f.qtSlots.RowPtr, ColIdx: f.qtSlots.ColIdx, Val: slotT},
		exit: make([]float64, n),
		reg:  reg,
		opt:  opt.withDefaults(),
	}
	for k, row := range rates {
		f.memberValues(vals, s.exit, row)
		f.plan.SlotSums(slot, vals)
		for e, src := range f.qtSlots.Val {
			slotT[e] = slot[int(src)]
		}
		pi, err := s.solve(ctx)
		if err != nil {
			var ec *runctx.ErrCanceled
			if errors.As(err, &ec) {
				return runctx.New("ctmc.steady-batch", err, k, len(rates), "members")
			}
			return err
		}
		visit(k, pi)
	}
	return nil
}

package ctmc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/numeric/poisson"
	"repro/internal/numeric/sparse"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/sparseutil"
)

// FirstPassageCDFs evaluates the first-passage CDF P(T_target <= t) of
// many family members on one ascending time grid in one call. rates[k]
// holds member k's rate constants in RateNames order, validated as
// ChainForRates validates them; every member starts from p0 and passes
// into the same target set. It returns one probability row per member
// (rows may share one backing array), each Float64bits-identical to
// ChainForRates(env_k).FirstPassageCDF(p0, targets, times, eps).
//
// No member builds a Chain. The call lays the absorbing, uniformized
// generator of every member on one shared pattern — the family's assembly
// slots — and keeps each member's values in flat arrays, so a member costs
// O(nnz) floats. Members whose uniformization rate q is equal share every
// Poisson table and advance in lockstep: one pass over the pattern per
// uniformization term, member index innermost. A member alone in its
// group runs the windowed scatter of Chain.Transient on its own CSR. The
// batch solves sequentially; callers fan out across families.
//
// reg, when non-nil, receives the per-member path's transient-solve and
// uniformization-term totals (one Add per group per grid point) and the
// family Poisson-cache outcomes; nil costs nothing, and the result bits
// are the same either way. A canceled ctx is polled once per group per
// uniformization term and yields a *runctx.ErrCanceled counting the
// members finished.
func (f *ChainFamily) FirstPassageCDFs(ctx context.Context, rates [][]float64, p0 []float64, targets []int, times []float64, eps float64, reg *obs.Registry) ([][]float64, error) {
	n := f.ss.NumStates()
	if err := checkInitial(p0, n); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("ctmc: empty passage target set")
	}
	isTarget := make([]bool, n)
	for _, s := range targets {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("ctmc: target state %d out of range", s)
		}
		isTarget[s] = true
	}
	for k, row := range rates {
		if len(row) != len(f.rateNames) {
			return nil, fmt.Errorf("ctmc: family member %d has %d rates for %d rate constants", k, len(row), len(f.rateNames))
		}
		for c, v := range row {
			if err := checkRate(f.rateNames[c], v); err != nil {
				return nil, fmt.Errorf("ctmc: family member %d: %w", k, err)
			}
		}
	}
	steps := make([]float64, len(times))
	prev := 0.0
	for i, t := range times {
		dt, err := gridStep("FirstPassageCDFs", i, t, prev)
		if err != nil {
			return nil, err
		}
		steps[i], prev = dt, t
	}
	probs := make([]float64, len(rates)*len(times))
	out := make([][]float64, len(rates))
	for k := range out {
		out[k] = probs[k*len(times) : (k+1)*len(times) : (k+1)*len(times)]
	}
	if len(rates) == 0 || len(times) == 0 {
		return out, nil
	}
	if eps <= 0 {
		eps = 1e-10
	}
	rowPtr, col := f.plan.Pattern()
	b := &passageBatch{
		f: f, rates: rates, p0: p0, isTarget: isTarget, times: times, steps: steps,
		stepEps: eps / float64(len(times)), reg: reg, out: out,
		rowPtr: rowPtr, col: col,
		vals: make([]float64, f.nnz), exit: make([]float64, n), slot: make([]float64, len(col)),
	}

	// Each member's q is its absorbing generator's largest exit rate. q is
	// never NaN or -0 (rates are finite and positive), so equal values are
	// equal bits: members sorted by q form one group per distinct value.
	q := make([]float64, len(rates))
	for k := range rates {
		var err error
		if q[k], err = b.uniformizationRate(k); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(rates))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, c int) int { return cmp.Compare(q[a], q[c]) })
	b.pv = make([]float64, len(rates)*len(col))
	b.work = make([]float64, 3*n*len(rates))
	for a := 0; a < len(order); {
		z := a + 1
		for z < len(order) && q[order[z]] == q[order[a]] {
			z++
		}
		if err := b.solveGroup(ctx, order[a:z], q[order[a]]); err != nil {
			var ec *runctx.ErrCanceled
			if errors.As(err, &ec) {
				return nil, runctx.New("ctmc.passage-batch", err, a, len(rates), "members")
			}
			return nil, err
		}
		a = z
	}
	return out, nil
}

// passageBatch is the call-wide state of one FirstPassageCDFs call. The
// uniformized generator P of every member lives on the family's assembly
// slot pattern (rowPtr, col), which is a superset of each member's own
// CSR: every row keeps its diagonal slot, non-target rows keep every
// off-diagonal slot, and target rows keep theirs as explicit zeros. In a
// lockstep group the extra entries — exact-zero slot sums, zero
// quotients, a diagonal that rounds to exactly 0 (often the row that sets
// q), target-row off-diagonals — each add ±0 to a running sum that is
// never -0, so every entry's value and summation order match the
// per-member path. A lone member's P is compacted to its own CSR first.
type passageBatch struct {
	f        *ChainFamily
	rates    [][]float64
	p0       []float64
	isTarget []bool
	times    []float64
	steps    []float64 // steps[i] = times[i] - times[i-1], times[-1] = 0
	stepEps  float64
	reg      *obs.Registry
	out      [][]float64

	rowPtr, col []int

	// One member's generator entry values, exit rates and Q slot sums.
	vals, exit, slot []float64
	// The current group's P values (entry-major, member-minor) and the
	// room for its three state-major iterate buffers, sized for every
	// member.
	pv, work []float64
}

// slotSums loads member k's generator slot sums into b.slot: Q's values on
// the slot pattern, each bit-identical to what Gather stores for it.
func (b *passageBatch) slotSums(k int) {
	b.f.memberValues(b.vals, b.exit, b.rates[k])
	b.f.plan.SlotSums(b.slot, b.vals)
}

// uniformizationRate returns member k's uniformization rate: the largest
// absorbing exit rate, each summing a non-target row's off-diagonal slots
// in column order and taken in row order, as Chain.absorbingRate does. A
// negative off-diagonal is rejected as absorbingRate rejects it.
func (b *passageBatch) uniformizationRate(k int) (float64, error) {
	b.slotSums(k)
	var q float64
	for i, tgt := range b.isTarget {
		if tgt {
			continue
		}
		var exit float64
		for s := b.rowPtr[i]; s < b.rowPtr[i+1]; s++ {
			if j := b.col[s]; j != i {
				v := b.slot[s]
				if v < 0 {
					return 0, fmt.Errorf("ctmc: family member %d: malformed generator: negative off-diagonal rate %g at (%d,%d)", k, v, i, j)
				}
				exit += v
			}
		}
		if exit > q {
			q = exit
		}
	}
	return q, nil
}

// solveGroup walks the time grid for one group of members that share the
// uniformization rate q, filling their probability rows.
func (b *passageBatch) solveGroup(ctx context.Context, members []int, q float64) error {
	g, n := len(members), len(b.isTarget)
	pv := b.pv[:len(b.col)*g]
	var lone *sparse.CSR
	if q > 0 {
		for m, k := range members {
			b.fillP(pv, g, m, k, q)
		}
		if g == 1 {
			lone = b.compact(pv)
		}
	}
	base, spare, next := b.work[:n*g], b.work[n*g:2*n*g], b.work[2*n*g:3*n*g]
	for i, v := range b.p0 {
		for m := 0; m < g; m++ {
			base[i*g+m] = v
		}
	}
	for i, dt := range b.steps {
		if q == 0 || dt == 0 {
			// The transient step is the identity.
			b.record(base, members, i)
			continue
		}
		w, err := b.f.passageWeights(q*dt, b.stepEps, b.reg)
		if err != nil {
			return fmt.Errorf("ctmc: passage step to t[%d]=%g: %w", i, b.times[i], err)
		}
		b.reg.Add("ctmc_transient_solves_total", float64(g))
		b.reg.Add("ctmc_uniformization_terms_total", float64(g*(w.Right+1)))
		b.reg.Set("ctmc_uniformization_truncation_depth", float64(w.Right))
		acc := spare
		clear(acc)
		clear(next)
		var terms int
		if lone != nil {
			terms, err = uniformize(ctx, lone, w, base, next, acc)
		} else {
			terms, err = lockstep(ctx, b.rowPtr, b.col, pv, g, w, base, next, acc)
		}
		if err != nil {
			runctx.Record(b.reg, "ctmc.transient", err)
			return runctx.New("ctmc.transient", err, terms, w.Right+1, "uniformization terms")
		}
		normalize(acc, g)
		b.record(acc, members, i)
		base, spare = acc, base
	}
	return nil
}

// fillP writes member k's uniformized values into slot m of a g-member
// group's pv, exactly as uniformized computes them for the member's
// targets: v/q off the diagonal and 1 - Σ v/q (in column order) on it for
// a non-target row, the identity row for a target.
func (b *passageBatch) fillP(pv []float64, g, m, k int, q float64) {
	b.slotSums(k)
	for i, tgt := range b.isTarget {
		lo, hi := b.rowPtr[i], b.rowPtr[i+1]
		diag := lo
		var offDiag float64
		for e := lo; e < hi; e++ {
			switch {
			case b.col[e] == i:
				diag = e
			case tgt:
				pv[e*g+m] = 0
			default:
				v := b.slot[e] / q
				pv[e*g+m] = v
				offDiag += v
			}
		}
		pv[diag*g+m] = 1 - offDiag
	}
}

// compact turns a lone member's P, laid on the shared pattern, into the
// CSR uniformized builds for the member's targets: the exact zeros are
// dropped in place, so the windowed scatter does the per-member path's
// work and no more.
func (b *passageBatch) compact(pv []float64) *sparse.CSR {
	n := len(b.isTarget)
	idx := make([]int, n+1+len(b.col))
	p := &sparse.CSR{Rows: n, Cols: n, RowPtr: idx[:n+1], ColIdx: idx[n+1:]}
	k := 0
	for i := 0; i < n; i++ {
		for e := b.rowPtr[i]; e < b.rowPtr[i+1]; e++ {
			if pv[e] != 0 {
				p.ColIdx[k], pv[k] = b.col[e], pv[e]
				k++
			}
		}
		p.RowPtr[i+1] = k
	}
	p.ColIdx, p.Val = p.ColIdx[:k], pv[:k]
	return p
}

// record stores grid point i of every group member's CDF: the mass on
// target states, summed in state order and clamped like absorbedMass.
func (b *passageBatch) record(dist []float64, members []int, i int) {
	g := len(members)
	for m, k := range members {
		var mass float64
		for s, tgt := range b.isTarget {
			if tgt {
				mass += dist[s*g+m]
			}
		}
		b.out[k][i] = sparseutil.Clamp01(mass)
	}
}

// normalize is linalg.Normalize1 applied to each of the g interleaved
// member vectors of v: sum in state order, then scale by the reciprocal.
func normalize(v []float64, g int) {
	for m := 0; m < g; m++ {
		var sum float64
		for i := m; i < len(v); i += g {
			sum += v[i]
		}
		if sum != 0 {
			a := 1 / sum
			for i := m; i < len(v); i += g {
				v[i] *= a
			}
		}
	}
}

// lockstep is uniformize for g members that share q, and so every Poisson
// weight: per term, one pass over the shared pattern with the member index
// innermost. x, y and acc hold g values per state; pv holds g values per
// pattern entry. It visits rows and entries the windowed scatter skips;
// each such product is ±0 and changes no bit (see passageBatch), so every
// member's iterate matches uniformize's. x and y are clobbered; acc must
// be zero on entry.
func lockstep(ctx context.Context, rowPtr, col []int, pv []float64, g int, w *poisson.Weights, x, y, acc []float64) (int, error) {
	n := len(rowPtr) - 1
	for k := 0; k <= w.Right; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return k, cerr
		}
		pw := w.Pmf(k)
		if k == w.Right {
			if pw > 0 {
				for i, v := range x {
					acc[i] += pw * v
				}
			}
			break
		}
		clear(y)
		for i := 0; i < n; i++ {
			xi := x[i*g : i*g+g]
			if pw > 0 {
				ai := acc[i*g : i*g+g]
				ai = ai[:len(xi)]
				for m, v := range xi {
					ai[m] += pw * v
				}
			}
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				j := col[e]
				yj := y[j*g : j*g+g]
				pe := pv[e*g : e*g+g]
				yj, pe = yj[:len(xi)], pe[:len(xi)]
				for m, v := range xi {
					yj[m] += v * pe[m]
				}
			}
		}
		x, y = y, x
	}
	return w.Right + 1, nil
}

// passageWeights returns the Poisson table for one group's grid step from
// the family's store, computing and publishing it on a miss. Tables depend
// only on (lambda, eps), never on the matrix, so sharing them across
// calls and members is exact; the store is bounded by maxWeightTables.
func (f *ChainFamily) passageWeights(lambda, eps float64, reg *obs.Registry) (*poisson.Weights, error) {
	key := weightKey{lambda, eps}
	f.mu.Lock()
	w, ok := f.weights[key]
	f.mu.Unlock()
	if ok {
		reg.Inc("ctmc_poisson_cache_total", obs.L("outcome", "family-hit"))
		return w, nil
	}
	reg.Inc("ctmc_poisson_cache_total", obs.L("outcome", "miss"))
	w, err := poisson.Compute(lambda, eps)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.weights == nil || len(f.weights) >= maxWeightTables {
		f.weights = make(map[weightKey]*poisson.Weights)
	}
	f.weights[key] = w
	f.mu.Unlock()
	return w, nil
}

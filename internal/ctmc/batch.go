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
// into the same target set. It stores no probability: visit(k, i, p)
// receives member k's CDF at times[i], Float64bits-identical to
// ChainForRates(env_k).FirstPassageCDF(p0, targets, times, eps).Probs[i],
// so a caller keeps only what it reports. visit sees each (member, point)
// pair exactly once, from the calling goroutine, in no promised order;
// when the call fails, the pairs visited before the error are partial.
//
// No member builds a Chain. The call lays the absorbing, uniformized
// generator of every member on one shared pattern — the family's assembly
// slots — and keeps each member's values in flat arrays, so a member costs
// O(nnz) floats. Members whose uniformization rate q is equal share every
// Poisson table and advance in lockstep: one pass over the pattern per
// uniformization term, member index innermost, in blocks of at most
// memberBlock members. A member alone in its group runs the windowed
// scatter of Chain.Transient on its own CSR. The batch solves
// sequentially; callers fan out across families.
//
// reg, when non-nil, receives the per-member path's transient-solve and
// uniformization-term totals (one Add per group per grid point) and the
// family Poisson-cache outcomes (one lookup per group per grid point);
// nil costs nothing, and the result bits are the same either way. A
// canceled ctx is polled once per block per uniformization term and
// yields a *runctx.ErrCanceled counting the members finished.
func (f *ChainFamily) FirstPassageCDFs(ctx context.Context, rates [][]float64, p0 []float64, targets []int, times []float64, eps float64, reg *obs.Registry, visit func(member, point int, p float64)) error {
	n := f.ss.NumStates()
	if err := checkInitial(p0, n); err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("ctmc: empty passage target set")
	}
	isTarget := make([]bool, n)
	for _, s := range targets {
		if s < 0 || s >= n {
			return fmt.Errorf("ctmc: target state %d out of range", s)
		}
		isTarget[s] = true
	}
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
	steps := make([]float64, len(times))
	prev := 0.0
	for i, t := range times {
		dt, err := gridStep("FirstPassageCDFs", i, t, prev)
		if err != nil {
			return err
		}
		steps[i], prev = dt, t
	}
	if len(rates) == 0 || len(times) == 0 {
		return nil
	}
	if eps <= 0 {
		eps = 1e-10
	}
	rowPtr, col := f.plan.Pattern()
	b := &passageBatch{
		f: f, rates: rates, p0: p0, isTarget: isTarget, times: times, steps: steps,
		stepEps: eps / float64(len(times)), reg: reg, visit: visit,
		rowPtr: rowPtr, col: col,
		vals: make([]float64, f.plan.NNZ()), exit: make([]float64, n), slot: make([]float64, len(col)),
		tables: make([]*poisson.Weights, len(times)),
	}

	// Each member's q is its absorbing generator's largest exit rate. q is
	// never NaN or -0 (rates are finite and positive), so equal values are
	// equal bits: members sorted by q form one group per distinct value.
	q := make([]float64, len(rates))
	for k := range rates {
		var err error
		if q[k], err = b.uniformizationRate(k); err != nil {
			return err
		}
	}
	order := make([]int, len(rates))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, c int) int { return cmp.Compare(q[a], q[c]) })
	width := min(len(rates), memberBlock) // the widest block
	b.pv = make([]float64, width*len(col))
	b.work = make([]float64, 3*n*width)
	for a := 0; a < len(order); {
		z := a + 1
		for z < len(order) && q[order[z]] == q[order[a]] {
			z++
		}
		if err := b.solveGroup(ctx, order[a:z], q[order[a]]); err != nil {
			var ec *runctx.ErrCanceled
			if errors.As(err, &ec) {
				return runctx.New("ctmc.passage-batch", err, a, len(rates), "members")
			}
			return err
		}
		a = z
	}
	return nil
}

// memberBlock bounds the members one lockstep pass carries. A larger group
// is solved in near-equal blocks, one after another over one block-sized
// workspace, so the workspace does not grow with the group.
const memberBlock = 64

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
// Members never mix: splitting a group into blocks only changes which
// members share a pass, never a member's own sums.
type passageBatch struct {
	f        *ChainFamily
	rates    [][]float64
	p0       []float64
	isTarget []bool
	times    []float64
	steps    []float64 // steps[i] = times[i] - times[i-1], times[-1] = 0
	stepEps  float64
	reg      *obs.Registry
	visit    func(member, point int, p float64)

	rowPtr, col []int

	// One member's generator entry values, exit rates and Q slot sums.
	vals, exit, slot []float64
	// The current group's Poisson table per grid step (nil where the step
	// is the identity), shared by its blocks.
	tables []*poisson.Weights
	// The current block's P values (entry-major, member-minor) and the
	// room for its three state-major iterate buffers, sized for
	// memberBlock members or all of them, whichever is fewer.
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
// uniformization rate q, visiting their CDF values. It fetches each
// grid step's Poisson table and counts its solves once for the whole
// group, then solves the group in near-equal blocks of at most
// memberBlock members.
func (b *passageBatch) solveGroup(ctx context.Context, members []int, q float64) error {
	g := len(members)
	for i, dt := range b.steps {
		b.tables[i] = nil
		if q == 0 || dt == 0 {
			// The transient step is the identity.
			continue
		}
		w, err := b.f.passageWeights(q*dt, b.stepEps, b.reg)
		if err != nil {
			return fmt.Errorf("ctmc: passage step to t[%d]=%g: %w", i, b.times[i], err)
		}
		b.reg.Add("ctmc_transient_solves_total", float64(g))
		b.reg.Add("ctmc_uniformization_terms_total", float64(g*(w.Right+1)))
		b.reg.Set("ctmc_uniformization_truncation_depth", float64(w.Right))
		b.tables[i] = w
	}
	nb := (g + memberBlock - 1) / memberBlock
	for j := 0; j < nb; j++ {
		if err := b.solveBlock(ctx, members[j*g/nb:(j+1)*g/nb], q); err != nil {
			return err
		}
	}
	return nil
}

// solveBlock walks the time grid for one block of a group. A block of one
// is a group of one (a split group's blocks hold at least
// memberBlock/2 members each), whose P is compacted for the windowed
// scatter.
func (b *passageBatch) solveBlock(ctx context.Context, members []int, q float64) error {
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
	for i, w := range b.tables {
		if w == nil {
			b.record(base, members, i)
			continue
		}
		acc := spare
		clear(acc)
		clear(next)
		var terms int
		var err error
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
// block's pv, exactly as uniformized computes them for the member's
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

// record visits grid point i of every block member's CDF: the mass on
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
		b.visit(k, i, sparseutil.Clamp01(mass))
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
// member's iterate matches uniformize's. The member loops are unrolled by
// four, which reorders only work on different members: each member's sums
// keep their order, and the loop body is long enough that the kernel's
// speed does not depend on where the linker places it (measured at 0 and
// 32 mod 64 bytes, docs/PERFORMANCE.md). x and y are clobbered; acc must
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
				m := 0
				for ; m+4 <= len(xi); m += 4 {
					x4, a4 := xi[m:m+4:m+4], ai[m:m+4:m+4]
					a4[0] += pw * x4[0]
					a4[1] += pw * x4[1]
					a4[2] += pw * x4[2]
					a4[3] += pw * x4[3]
				}
				for ; m < len(xi); m++ {
					ai[m] += pw * xi[m]
				}
			}
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				j := col[e]
				yj := y[j*g : j*g+g]
				pe := pv[e*g : e*g+g]
				yj, pe = yj[:len(xi)], pe[:len(xi)]
				m := 0
				for ; m+4 <= len(xi); m += 4 {
					x4, y4, p4 := xi[m:m+4:m+4], yj[m:m+4:m+4], pe[m:m+4:m+4]
					y4[0] += x4[0] * p4[0]
					y4[1] += x4[1] * p4[1]
					y4[2] += x4[2] * p4[2]
					y4[3] += x4[3] * p4[3]
				}
				for ; m < len(xi); m++ {
					yj[m] += xi[m] * pe[m]
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

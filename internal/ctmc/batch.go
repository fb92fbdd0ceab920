package ctmc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
// memberBlock members. A member alone in its group is solved as a chain's
// passage is. The batch solves sequentially; callers fan out across
// families.
//
// reg, when non-nil, receives the transient-solve and uniformization-term
// totals (one Add per group per grid point) and the family Poisson-cache
// outcomes (one lookup per group per grid point); nil costs nothing, and
// the result bits are the same either way. A canceled ctx is polled once
// per block per uniformization term and yields a *runctx.ErrCanceled
// counting the members finished.
func (f *ChainFamily) FirstPassageCDFs(ctx context.Context, rates [][]float64, p0 []float64, targets []int, times []float64, eps float64, reg *obs.Registry, visit func(member, point int, p float64)) error {
	if err := f.checkRates(rates); err != nil {
		return err
	}
	rowPtr, col := f.plan.Pattern()
	vals, exit, slot := make([]float64, f.plan.NNZ()), make([]float64, len(rowPtr)-1), make([]float64, len(col))
	b := passageBatch{
		rowPtr: rowPtr, col: col, slot: slot,
		load: func(k int) { // the member's Q values on the slot pattern
			f.memberValues(vals, exit, rates[k])
			f.plan.SlotSums(slot, vals)
		},
		store: &f.weights, reg: reg, visit: visit,
	}
	done, err := b.run(ctx, "FirstPassageCDFs", p0, targets, times, eps, len(rates))
	if err != nil {
		var ec *runctx.ErrCanceled
		if errors.As(err, &ec) {
			return runctx.New("ctmc.passage-batch", err, done, len(rates), "members")
		}
	}
	return err
}

// memberBlock bounds the members one lockstep pass carries. A larger group
// is solved in near-equal blocks, one after another over one block-sized
// workspace, so the workspace does not grow with the group.
const memberBlock = 64

// passageBatch is the passage engine of both entry points: a chain's
// FirstPassageCDF is a batch of one member laid on Q's own pattern, and
// FirstPassageCDFs a batch of family members laid on the family's
// assembly slot pattern. The caller supplies the pattern (rowPtr, col),
// the loader that puts a member's generator values on it, the Poisson
// store, the registry and the visitor; run does the rest.
//
// The family pattern is a superset of each member's own CSR: every row
// keeps its diagonal slot, non-target rows keep every off-diagonal slot,
// and target rows keep theirs as explicit zeros. In a lockstep group the
// extra entries — exact-zero slot sums, zero quotients, a diagonal that
// rounds to exactly 0 (often the row that sets q), target-row
// off-diagonals — each add ±0 to a running sum that is never -0, so every
// entry's value and summation order match a chain's own passage. A member
// alone in its group takes its P from uniformized, which drops those
// zeros. Members never mix: splitting a group into blocks only changes
// which members share a pass, never a member's own sums.
type passageBatch struct {
	rowPtr, col []int
	// slot holds the loaded member's generator values on the pattern, and
	// load(k) puts member k's there (a chain's slot is its own Q.Val, so
	// its loader does nothing).
	slot  []float64
	load  func(k int)
	store *weightStore
	reg   *obs.Registry
	visit func(member, point int, p float64)

	p0       []float64
	isTarget []bool
	times    []float64
	stepEps  float64
	// The current group's Poisson table per grid step (nil where the step
	// is the identity), shared by its blocks.
	tables []*poisson.Weights
	// width is the widest block: memberBlock members or all of them,
	// whichever is fewer. work is the room for a block's three state-major
	// iterate buffers, and pv, allocated by the first lockstep block, holds
	// the block's P values (entry-major, member-minor).
	width    int
	work, pv []float64
}

// memberRate is a member and its uniformization rate q.
type memberRate struct {
	k int
	q float64
}

// run validates what both entry points share — p0, the target set and the
// time grid (api names the entry point in a grid error) — and solves the
// batch's members 0..members-1, group by group. It returns the members
// finished before the group that failed.
func (b *passageBatch) run(ctx context.Context, api string, p0 []float64, targets []int, times []float64, eps float64, members int) (int, error) {
	n := len(b.rowPtr) - 1
	if err := checkInitial(p0, n); err != nil {
		return 0, err
	}
	if len(targets) == 0 {
		return 0, fmt.Errorf("ctmc: empty passage target set")
	}
	b.isTarget = make([]bool, n)
	for _, s := range targets {
		if s < 0 || s >= n {
			return 0, fmt.Errorf("ctmc: target state %d out of range", s)
		}
		b.isTarget[s] = true
	}
	prev := 0.0
	for i, t := range times {
		if _, err := gridStep(api, i, t, prev); err != nil {
			return 0, err
		}
		prev = t
	}
	// A family member's q is never NaN or -0 (its rates are finite and
	// positive), so equal values are equal bits: members sorted by q form
	// one group per value. A chain is a group of one whatever its q, and
	// its order stays on the stack.
	var one [1]memberRate
	order := one[:0]
	if members > 1 {
		order = make([]memberRate, 0, members)
	}
	for k := 0; k < members; k++ {
		q, err := b.uniformizationRate(k)
		if err != nil {
			return 0, err
		}
		order = append(order, memberRate{k, q})
	}
	if members == 0 || len(times) == 0 {
		return 0, nil
	}
	slices.SortStableFunc(order, func(a, c memberRate) int { return cmp.Compare(a.q, c.q) })
	if eps <= 0 {
		eps = 1e-10
	}
	b.p0, b.times, b.stepEps = p0, times, eps/float64(len(times))
	b.tables = make([]*poisson.Weights, len(times))
	b.width = min(members, memberBlock)
	b.work = make([]float64, 3*n*b.width)
	for a := 0; a < len(order); {
		z := a + 1
		for z < len(order) && order[z].q == order[a].q {
			z++
		}
		if err := b.solveGroup(ctx, order[a:z]); err != nil {
			return a, err
		}
		a = z
	}
	return members, nil
}

// uniformizationRate loads member k and returns its uniformization rate:
// the largest absorbing exit rate, each summing a non-target row's
// off-diagonal entries in column order and taken in row order. A negative
// off-diagonal is rejected: the absorbing transform would silently lose
// its mass.
func (b *passageBatch) uniformizationRate(k int) (float64, error) {
	b.load(k)
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
					return 0, fmt.Errorf("ctmc: malformed generator: negative off-diagonal rate %g at (%d,%d)", v, i, j)
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

// solveGroup walks the time grid for one group of members that share a
// uniformization rate q, visiting their CDF values. It fetches each grid
// step's Poisson table and counts its solves once for the whole group,
// then solves the group in near-equal blocks of at most memberBlock
// members.
func (b *passageBatch) solveGroup(ctx context.Context, group []memberRate) error {
	g, q := len(group), group[0].q
	prev := 0.0
	for i, t := range b.times {
		dt := t - prev
		prev = t
		b.tables[i] = nil
		if q == 0 || dt == 0 {
			// The transient step is the identity.
			continue
		}
		w, err := b.store.get(q*dt, b.stepEps, b.reg)
		if err != nil {
			return fmt.Errorf("ctmc: passage step to t[%d]=%g: %w", i, t, err)
		}
		b.reg.Add("ctmc_transient_solves_total", float64(g))
		b.reg.Add("ctmc_uniformization_terms_total", float64(g*(w.Right+1)))
		b.reg.Set("ctmc_uniformization_truncation_depth", float64(w.Right))
		b.tables[i] = w
	}
	nb := (g + memberBlock - 1) / memberBlock
	for j := 0; j < nb; j++ {
		if err := b.solveBlock(ctx, group[j*g/nb:(j+1)*g/nb], q); err != nil {
			return err
		}
	}
	return nil
}

// solveBlock walks the time grid for one block of a group. A block of one
// is a group of one (a split group's blocks hold at least memberBlock/2
// members each): its P is uniformized from the member's own values and
// each term runs the windowed scatter.
func (b *passageBatch) solveBlock(ctx context.Context, members []memberRate, q float64) error {
	g, n := len(members), len(b.isTarget)
	var lone *sparse.CSR
	var pv []float64
	switch {
	case q == 0: // every step is the identity
	case g == 1:
		b.load(members[0].k)
		lone = uniformized(&sparse.CSR{Rows: n, Cols: n, RowPtr: b.rowPtr, ColIdx: b.col, Val: b.slot}, q, b.isTarget)
	default:
		if b.pv == nil {
			b.pv = make([]float64, b.width*len(b.col))
		}
		pv = b.pv[:len(b.col)*g]
		for m, mr := range members {
			b.fillP(pv, g, m, mr.k, q)
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

// fillP loads member k and writes its uniformized values into slot m of a
// g-member block's pv, exactly as uniformized computes them: v/q off the
// diagonal and 1 - Σ v/q (in column order) on it for a non-target row,
// the identity row for a target.
func (b *passageBatch) fillP(pv []float64, g, m, k int, q float64) {
	b.load(k)
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

// record visits grid point i of every block member's CDF: the mass on
// target states, summed in state order and clamped to [0,1]. Clamp01 also
// maps NaN to 0, so a poisoned solve cannot leak NaN into the CDF (it
// shows up as missing mass instead).
func (b *passageBatch) record(dist []float64, members []memberRate, i int) {
	g := len(members)
	for m, mr := range members {
		var mass float64
		for s, tgt := range b.isTarget {
			if tgt {
				mass += dist[s*g+m]
			}
		}
		b.visit(mr.k, i, sparseutil.Clamp01(mass))
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

// weightStore keeps truncated Poisson weight tables by (lambda, eps).
// A table depends on nothing else, never on the matrix, so sharing one
// across steps, members and calls is exact. The zero value is the store
// of one transient or passage call; a family's store outlives its calls
// and is locked by mu. A found table counts as the outcome "hit" in a
// call's store and "family-hit" in a family's, a computed one as "miss".
// The store holds at most maxWeightTables and is reset when full.
type weightStore struct {
	mu     *sync.Mutex // non-nil for a family's store
	tables map[weightKey]*poisson.Weights
}

// get returns the Poisson(lambda) table truncated at eps, computing and
// keeping it on a miss.
func (s *weightStore) get(lambda, eps float64, reg *obs.Registry) (*poisson.Weights, error) {
	hit := "hit"
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		hit = "family-hit"
	}
	key := weightKey{lambda, eps}
	if w, ok := s.tables[key]; ok {
		reg.Inc("ctmc_poisson_cache_total", obs.L("outcome", hit))
		return w, nil
	}
	reg.Inc("ctmc_poisson_cache_total", obs.L("outcome", "miss"))
	w, err := poisson.Compute(lambda, eps)
	if err != nil {
		return nil, err
	}
	if s.tables == nil || len(s.tables) >= maxWeightTables {
		s.tables = make(map[weightKey]*poisson.Weights)
	}
	s.tables[key] = w
	return w, nil
}

package biopepa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/ctmc"
	"repro/internal/numeric/ode"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/ssa"
)

// compiled caches the reaction structure with species indices resolved.
type compiled struct {
	model     *Model
	reactions []*Reaction
	// delta[r][i] is the net stoichiometric change of species i when
	// reaction r fires.
	delta [][]float64
	// env is the rate-law environment, built once: every parameter, then
	// every species, whose values rates writes in place.
	env map[string]float64
}

func (m *Model) compile() (*compiled, error) {
	rxs, err := m.Reactions()
	if err != nil {
		return nil, err
	}
	idx := map[string]int{}
	for i, sp := range m.Species {
		idx[sp.Name] = i
	}
	c := &compiled{model: m, reactions: rxs, delta: make([][]float64, len(rxs)), env: m.Env(make([]float64, len(m.Species)))}
	for r, rx := range rxs {
		c.delta[r] = make([]float64, len(m.Species))
		for _, p := range rx.Reactants {
			c.delta[r][idx[p.Species]] -= p.Stoich
		}
		for _, p := range rx.Products {
			c.delta[r][idx[p.Species]] += p.Stoich
		}
	}
	return c, nil
}

// rates evaluates all reaction rates at state x into dst.
func (c *compiled) rates(x []float64, dst []float64) error {
	for i, sp := range c.model.Species {
		c.env[sp.Name] = x[i]
	}
	for r, rx := range c.reactions {
		v, err := rx.Law.Rate(c.env, rx)
		if err != nil {
			return fmt.Errorf("biopepa: rate of reaction %q: %w", rx.Name, err)
		}
		if v < 0 {
			v = 0
		}
		dst[r] = v
	}
	return nil
}

// ODEResult is a deterministic (reaction ODE) trajectory.
type ODEResult struct {
	Model *Model
	Times []float64
	X     [][]float64 // X[k][i] = concentration of species i at Times[k]
}

// SolveODE integrates the reaction ODEs dx/dt = S·v(x) over [0, horizon]
// with n output intervals.
func (m *Model) SolveODE(horizon float64, n int) (*ODEResult, error) {
	return m.SolveODECtx(context.Background(), horizon, n)
}

// SolveODECtx is SolveODE with cooperative cancellation: the integrator
// polls ctx before every adaptive step and an interrupted integration
// returns a *runctx.ErrCanceled whose Partial is the *ODEResult over
// the grid prefix actually reached.
func (m *Model) SolveODECtx(ctx context.Context, horizon float64, n int) (*ODEResult, error) {
	if !(horizon > 0) || math.IsInf(horizon, 0) || n < 1 {
		return nil, fmt.Errorf("biopepa: bad ODE parameters horizon=%g n=%d", horizon, n)
	}
	c, err := m.compile()
	if err != nil {
		return nil, err
	}
	rateBuf := make([]float64, len(c.reactions))
	var rateErr error
	f := func(t float64, y, dst []float64) {
		for i := range dst {
			dst[i] = 0
		}
		if err := c.rates(y, rateBuf); err != nil {
			rateErr = err
			return
		}
		for r := range c.reactions {
			v := rateBuf[r]
			if v == 0 {
				continue
			}
			for i, d := range c.delta[r] {
				dst[i] += d * v
			}
		}
	}
	sol, err := ode.DormandPrince(f, m.InitialState(), ode.Grid(0, horizon, n), ode.DormandPrinceOptions{RelTol: 1e-8, AbsTol: 1e-10, Cancel: ctx.Err})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			ec := runctx.New("biopepa.ode", cerr, len(sol.Y), n+1, "grid points")
			ec.Partial = &ODEResult{Model: m, Times: sol.T, X: sol.Y}
			return nil, ec
		}
		return nil, err
	}
	if rateErr != nil {
		return nil, rateErr
	}
	return &ODEResult{Model: m, Times: sol.T, X: sol.Y}, nil
}

// Series extracts one species' trajectory.
func (r *ODEResult) Series(species string) ([]float64, error) {
	for i, sp := range r.Model.Species {
		if sp.Name == species {
			out := make([]float64, len(r.X))
			for k, x := range r.X {
				out[k] = x[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("biopepa: unknown species %q", species)
}

// SSAResult is a stochastic simulation trajectory.
type SSAResult struct {
	Model *Model
	Times []float64
	X     [][]float64
	Jumps int
}

// SimulateSSA runs one Gillespie direct-method trajectory to the horizon,
// sampling on n+1 grid points. Initial amounts are interpreted as discrete
// counts (rounded).
func (m *Model) SimulateSSA(horizon float64, n int, seed uint64) (*SSAResult, error) {
	return m.SimulateSSACtx(context.Background(), horizon, n, seed)
}

// SimulateSSACtx is SimulateSSA with cooperative cancellation, polled
// once per reaction firing.
func (m *Model) SimulateSSACtx(ctx context.Context, horizon float64, n int, seed uint64) (*SSAResult, error) {
	p, err := m.simulateSSA(ctx, horizon, n, seed)
	if err != nil {
		return nil, err
	}
	return &SSAResult{Model: m, Times: ssa.Grid(horizon, n), X: p.X, Jumps: p.Jumps}, nil
}

// simulateSSA runs one trajectory by ssa.Run, compiling the reaction
// structure for this run alone: its rate-law environment is scratch
// state, so concurrent replications must not share it.
func (m *Model) simulateSSA(ctx context.Context, horizon float64, n int, seed uint64) (ssa.Path, error) {
	if !(horizon > 0) || math.IsInf(horizon, 0) || n < 1 {
		return ssa.Path{}, fmt.Errorf("biopepa: bad SSA parameters horizon=%g n=%d", horizon, n)
	}
	c, err := m.compile()
	if err != nil {
		return ssa.Path{}, err
	}
	x0 := m.InitialState()
	for i := range x0 {
		x0[i] = float64(int64(x0[i] + 0.5))
	}
	rates := func(x, dst []float64) error {
		if err := c.rates(x, dst); err != nil {
			return err
		}
		for ri := range dst {
			// A reaction whose reactants are insufficient cannot fire in
			// the discrete setting.
			if !c.canFire(ri, x) {
				dst[ri] = 0
			}
		}
		return nil
	}
	fire := func(ri int, x []float64, _ *rng.Source) {
		for i, d := range c.delta[ri] {
			x[i] += d
		}
	}
	return ssa.Run(ctx, "biopepa.ssa", x0, horizon, n, seed, len(c.reactions), rates, fire)
}

func (c *compiled) canFire(r int, x []float64) bool {
	for i, d := range c.delta[r] {
		if d < 0 && x[i]+d < -1e-9 {
			return false
		}
	}
	return true
}

// MeanSSA averages k trajectories. Replications run in parallel (each
// compiles its own reaction structure and owns its RNG); the reduction
// runs in replication order for bit-stable output.
func (m *Model) MeanSSA(horizon float64, n, k int, seed uint64) (*SSAResult, error) {
	return m.MeanSSACtx(context.Background(), horizon, n, k, seed)
}

// MeanSSACtx is MeanSSA with cooperative cancellation: no new
// replication starts once ctx is done and running ones stop at their
// next reaction; the error reports the completed replication count.
func (m *Model) MeanSSACtx(ctx context.Context, horizon float64, n, k int, seed uint64) (*SSAResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("biopepa: need at least one replication")
	}
	reps, err := checkpoint.Open[int, ssa.Path](nil, "")
	if err != nil {
		return nil, err
	}
	paths, err := ssa.Replicate(ctx, "biopepa.mean-ssa", k, reps, func(rep int) (ssa.Path, error) {
		return m.simulateSSA(ctx, horizon, n, seed+uint64(rep)*0x9E3779B9)
	})
	if err != nil {
		return nil, err
	}
	mean, jumps := ssa.Mean(paths)
	return &SSAResult{Model: m, Times: ssa.Grid(horizon, n), X: mean, Jumps: jumps}, nil
}

// Series extracts one species' trajectory from an SSA run.
func (r *SSAResult) Series(species string) ([]float64, error) {
	for i, sp := range r.Model.Species {
		if sp.Name == species {
			out := make([]float64, len(r.X))
			for k, x := range r.X {
				out[k] = x[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("biopepa: unknown species %q", species)
}

// CTMCOptions bounds the discrete state-space construction.
type CTMCOptions struct {
	MaxStates int // default 100000
	// MaxCount caps any species count during exploration; transitions that
	// would exceed it are dropped (reflecting boundary). Default 1000.
	MaxCount float64
}

// CTMCSpace is the explicit population CTMC of a Bio-PEPA model with small
// initial counts, as built by the plug-in's CTMC analysis.
type CTMCSpace struct {
	Model  *Model
	States [][]float64 // population vectors
	Index  map[string]int
	Chain  *ctmc.Chain
}

// BuildCTMC explores the discrete population state space and assembles the
// generator. Rates are evaluated by the kinetic laws on the discrete
// counts.
func (m *Model) BuildCTMC(opt CTMCOptions) (*CTMCSpace, error) {
	return m.BuildCTMCCtx(context.Background(), opt)
}

// BuildCTMCCtx is BuildCTMC with cooperative cancellation, polled once
// per dequeued state of the population-space BFS.
func (m *Model) BuildCTMCCtx(ctx context.Context, opt CTMCOptions) (*CTMCSpace, error) {
	if opt.MaxStates <= 0 {
		opt.MaxStates = 100000
	}
	if opt.MaxCount <= 0 {
		opt.MaxCount = 1000
	}
	c, err := m.compile()
	if err != nil {
		return nil, err
	}
	x0 := m.InitialState()
	for i := range x0 {
		x0[i] = float64(int64(x0[i] + 0.5))
	}
	space := &CTMCSpace{Model: m, Index: map[string]int{}}
	key := func(x []float64) string {
		b := make([]byte, 0, len(x)*4)
		for _, v := range x {
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
		}
		return string(b)
	}
	add := func(x []float64) (int, bool, error) {
		k := key(x)
		if id, ok := space.Index[k]; ok {
			return id, false, nil
		}
		if len(space.States) >= opt.MaxStates {
			return 0, false, fmt.Errorf("biopepa: CTMC state space exceeds %d states", opt.MaxStates)
		}
		id := len(space.States)
		space.Index[k] = id
		space.States = append(space.States, append([]float64(nil), x...))
		return id, true, nil
	}
	startID, _, err := add(x0)
	if err != nil {
		return nil, err
	}
	type edge struct {
		from, to int
		rate     float64
		rx       string
	}
	var edges []edge
	queue := []int{startID}
	rates := make([]float64, len(c.reactions))
	for len(queue) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, runctx.New("biopepa.ctmc", cerr, len(space.States), 0, "states")
		}
		sid := queue[0]
		queue = queue[1:]
		x := space.States[sid]
		if err := c.rates(x, rates); err != nil {
			return nil, err
		}
		for ri, rx := range c.reactions {
			if rates[ri] <= 0 || !c.canFire(ri, x) {
				continue
			}
			nx := append([]float64(nil), x...)
			ok := true
			for i, d := range c.delta[ri] {
				nx[i] += d
				if nx[i] > opt.MaxCount {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			tid, fresh, err := add(nx)
			if err != nil {
				return nil, err
			}
			if fresh {
				queue = append(queue, tid)
			}
			edges = append(edges, edge{from: sid, to: tid, rate: rates[ri], rx: rx.Name})
		}
	}
	rateMap := map[[2]int]float64{}
	actionRates := map[string]map[int]float64{}
	for _, e := range edges {
		rateMap[[2]int{e.from, e.to}] += e.rate
		if actionRates[e.rx] == nil {
			actionRates[e.rx] = map[int]float64{}
		}
		actionRates[e.rx][e.from] += e.rate
	}
	space.Chain = ctmc.NewChain(len(space.States), rateMap)
	names := make([]string, 0, len(actionRates))
	for n := range actionRates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := make([]float64, len(space.States))
		for s, r := range actionRates[n] {
			v[s] = r
		}
		space.Chain.ActionRate[n] = v
	}
	return space, nil
}

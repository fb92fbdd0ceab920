package gpepa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric/ode"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/runctx"
)

// LocalState identifies one ODE variable: the count of components of a
// group currently in a given sequential derivative state.
type LocalState struct {
	Group string
	State string // canonical term syntax of the sequential derivative
}

// localTransition is one activity of a sequential derivative; its action
// is the one whose byAction list holds it.
type localTransition struct {
	rate float64 // active rate (fluid analysis requires active rates)
	from int     // variable index
	to   int     // variable index
}

// fluidNode is one node of the compiled group tree: a group leaf
// (left == nil) or a cooperation between two subtrees. Actions are
// indexed as in FluidSystem.Actions. The tree is read-only once compiled,
// so concurrent solves and simulations share it.
type fluidNode struct {
	// trans holds a leaf's local transitions in compile order, and
	// byAction[a] the positions in trans of its Actions[a] transitions.
	trans    []localTransition
	byAction [][]int

	left, right *fluidNode
	// sync[a] reports whether a cooperation synchronises on Actions[a].
	sync []bool
}

// FluidSystem is the compiled mean-field ODE system of a GPEPA model. No
// solve writes it: solves, simulations and SteadyState may run
// concurrently on one system.
type FluidSystem struct {
	Model *Model
	// Vars lists the ODE variables in deterministic order.
	Vars []LocalState
	// Index maps a LocalState to its variable position.
	Index map[LocalState]int
	// X0 is the initial population vector.
	X0 []float64
	// Actions is the sorted set of action types appearing in any group.
	Actions []string

	// Obs, when non-nil, receives simulation metrics (trajectories,
	// reactions fired, replication counts). Safe for the parallel
	// replication workers; nil costs nothing.
	Obs *obs.Registry

	groups    []*Group         // group seeds, in Groups() order
	root      *fluidNode       // the compiled system equation
	leaves    []*fluidNode     // its group leaves, in Groups() order
	groupVars map[string][]int // group label -> variable indices
}

// Compile derives every group's sequential state space and assembles the
// fluid ODE structure: the system equation becomes a tree of fluidNodes,
// so evaluating it looks up no action or label by name. It fails if any
// component offers a passive rate: GPAnalyser's fluid analysis requires
// fully specified (active) rates.
func Compile(m *Model) (*FluidSystem, error) {
	fs := &FluidSystem{
		Model:     m,
		Index:     map[LocalState]int{},
		groupVars: map[string][]int{},
	}
	fs.groups = m.Groups()
	fs.leaves = make([]*fluidNode, len(fs.groups))
	names := make([][]string, len(fs.groups)) // each leaf transition's action
	actions := map[string]bool{}
	for gi, g := range fs.groups {
		// The group's derivative states, discovered breadth first from its
		// declared seeds in order, are the variables of the group.
		seeds := make([]pepa.Process, len(g.Seeds))
		for i, s := range g.Seeds {
			seeds[i] = &pepa.Const{Name: s.Component}
		}
		locals, err := derive.NewLocals(m.Defs, seeds)
		if err != nil {
			return nil, fmt.Errorf("gpepa: deriving the components of group %q: %w", g.Label, err)
		}
		base := len(fs.Vars)
		for _, key := range locals.States {
			ls := LocalState{Group: g.Label, State: key}
			fs.Index[ls] = len(fs.Vars)
			fs.Vars = append(fs.Vars, ls)
			fs.groupVars[g.Label] = append(fs.groupVars[g.Label], fs.Index[ls])
		}
		// Record local transitions with variable indices.
		leaf := &fluidNode{}
		for s, ts := range locals.Trans {
			for _, tr := range ts {
				if tr.Rate.Passive {
					return nil, fmt.Errorf("gpepa: component state %s in group %q offers action %q at a passive rate; fluid analysis requires active rates", locals.States[s], g.Label, tr.Action)
				}
				leaf.trans = append(leaf.trans, localTransition{rate: tr.Rate.Value, from: base + s, to: base + tr.To})
				names[gi] = append(names[gi], tr.Action)
				actions[tr.Action] = true
			}
		}
		fs.leaves[gi] = leaf
	}
	// Initial populations.
	fs.X0 = make([]float64, len(fs.Vars))
	for _, g := range fs.groups {
		for _, s := range g.Seeds {
			idx := fs.Index[LocalState{Group: g.Label, State: s.Component}]
			fs.X0[idx] += s.Count
		}
	}
	for a := range actions {
		fs.Actions = append(fs.Actions, a)
	}
	sort.Strings(fs.Actions)
	for gi, leaf := range fs.leaves {
		leaf.byAction = make([][]int, len(fs.Actions))
		for k, name := range names[gi] {
			a := sort.SearchStrings(fs.Actions, name)
			leaf.byAction[a] = append(leaf.byAction[a], k)
		}
	}
	// The tree's leaves are taken in the order Groups() lists them: both
	// walk the system equation left to right.
	next := 0
	var build func(GroupExpr) *fluidNode
	build = func(e GroupExpr) *fluidNode {
		switch t := e.(type) {
		case *Group:
			next++
			return fs.leaves[next-1]
		case *GroupCoop:
			n := &fluidNode{sync: make([]bool, len(fs.Actions))}
			n.left = build(t.Left)
			n.right = build(t.Right)
			for a, name := range fs.Actions {
				n.sync[a] = pepa.Contains(t.Set, name)
			}
			return n
		default:
			panic(fmt.Sprintf("gpepa: unknown group expr %T", e))
		}
	}
	fs.root = build(m.System)
	return fs, nil
}

// WithCounts returns a copy of the compiled system with the seed count
// of (group, component) replaced, recompiling nothing: seed counts enter
// the fluid structure only through the initial population vector, so the
// derived variables, the group tree and the action set are shared with
// the receiver and only the group seeds and X0 are rebuilt. A scalability
// sweep compiles once and stamps out its population points through this
// (the per-point BFS derivations the compile-per-point path paid were
// pure overhead). Model still names the prototype; it is not cloned.
// Errors when the group has no such seed.
func (fs *FluidSystem) WithCounts(group, component string, count float64) (*FluidSystem, error) {
	if count < 0 {
		return nil, fmt.Errorf("gpepa: negative population %g", count)
	}
	found := false
	groups := make([]*Group, len(fs.groups))
	for gi, g := range fs.groups {
		ng := &Group{Label: g.Label, Seeds: append([]Seed(nil), g.Seeds...)}
		if ng.Label == group {
			for i := range ng.Seeds {
				if ng.Seeds[i].Component == component {
					ng.Seeds[i].Count = count
					found = true
				}
			}
		}
		groups[gi] = ng
	}
	if !found {
		return nil, fmt.Errorf("gpepa: no seed %s[...] in group %q", component, group)
	}
	out := &FluidSystem{
		Model: fs.Model, Vars: fs.Vars, Index: fs.Index, Actions: fs.Actions,
		Obs: fs.Obs, groups: groups, root: fs.root, leaves: fs.leaves, groupVars: fs.groupVars,
	}
	out.X0 = make([]float64, len(fs.Vars))
	for _, g := range groups {
		for _, s := range g.Seeds {
			out.X0[fs.Index[LocalState{Group: g.Label, State: s.Component}]] += s.Count
		}
	}
	return out, nil
}

// rate is the apparent rate of action a in the subtree at population x: a
// leaf sums x_from·rate over its a-transitions in compile order; a
// cooperation takes the min of its children's rates where it synchronises
// on a and their sum where it does not.
func (n *fluidNode) rate(a int, x []float64) float64 {
	if n.left == nil {
		var total float64
		for _, k := range n.byAction[a] {
			tr := &n.trans[k]
			total += x[tr.from] * tr.rate
		}
		return total
	}
	l := n.left.rate(a, x)
	r := n.right.rate(a, x)
	if n.sync[a] {
		if l < r {
			return l
		}
		return r
	}
	return l + r
}

// flow adds to dst the flows of action a occurring at rate r in the
// subtree: a cooperation that synchronises on a passes r to both
// children, one that does not splits r in proportion to their apparent
// rates, and a leaf moves r along its a-transitions in proportion to
// x_from·rate. Rates read only x, and each leaf writes only its own
// group's variables, so the order in which leaves apply their flows
// changes no bit of dst.
func (n *fluidNode) flow(a int, x []float64, r float64, dst []float64) {
	if r == 0 {
		return
	}
	if n.left == nil {
		ag := n.rate(a, x)
		if ag == 0 {
			return
		}
		for _, k := range n.byAction[a] {
			tr := &n.trans[k]
			f := r * (x[tr.from] * tr.rate / ag)
			dst[tr.from] -= f
			dst[tr.to] += f
		}
		return
	}
	if n.sync[a] {
		n.left.flow(a, x, r, dst)
		n.right.flow(a, x, r, dst)
		return
	}
	l := n.left.rate(a, x)
	rr := n.right.rate(a, x)
	if l+rr == 0 {
		return
	}
	n.left.flow(a, x, r*l/(l+rr), dst)
	n.right.flow(a, x, r*rr/(l+rr), dst)
}

// Derivative computes dx/dt at population x into dst. It allocates
// nothing.
func (fs *FluidSystem) Derivative(x, dst []float64) {
	clear(dst)
	for a := range fs.Actions {
		total := fs.root.rate(a, x)
		if total <= 0 {
			continue
		}
		fs.root.flow(a, x, total, dst)
	}
}

// ActionThroughput returns the instantaneous system-wide rate of an action
// at population x (the fluid analogue of PEPA throughput); 0 for an action
// no group offers.
func (fs *FluidSystem) ActionThroughput(action string, x []float64) float64 {
	a := sort.SearchStrings(fs.Actions, action)
	if a == len(fs.Actions) || fs.Actions[a] != action {
		return 0
	}
	return fs.root.rate(a, x)
}

// GroupPopulation sums the variables of one group at population x.
func (fs *FluidSystem) GroupPopulation(label string, x []float64) float64 {
	var total float64
	for _, idx := range fs.groupVars[label] {
		total += x[idx]
	}
	return total
}

// FluidResult is a solved fluid trajectory.
type FluidResult struct {
	System *FluidSystem
	Times  []float64
	X      [][]float64 // X[k][i] = count of Vars[i] at Times[k]
}

// SolveOptions tunes the fluid integration.
type SolveOptions struct {
	RelTol float64 // default 1e-8
	AbsTol float64 // default 1e-10
}

// Solve integrates the fluid ODEs over [0, horizon] sampling n+1 evenly
// spaced points.
func (fs *FluidSystem) Solve(horizon float64, n int, opt SolveOptions) (*FluidResult, error) {
	return fs.SolveCtx(context.Background(), horizon, n, opt)
}

// SolveCtx is Solve with cooperative cancellation: the integrator polls
// ctx before every adaptive step. An interrupted integration returns a
// *runctx.ErrCanceled whose Partial is the *FluidResult over the grid
// prefix actually reached. An uncancelled context changes nothing about
// the step sequence: results are bit-identical to Solve.
func (fs *FluidSystem) SolveCtx(ctx context.Context, horizon float64, n int, opt SolveOptions) (*FluidResult, error) {
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("gpepa: horizon must be finite and positive, got %g", horizon)
	}
	if n < 1 {
		return nil, fmt.Errorf("gpepa: need at least one output interval")
	}
	grid := ode.Grid(0, horizon, n)
	nv := len(fs.X0)
	flat := make([]float64, len(grid)*nv)
	xs := make([][]float64, 0, len(grid))
	err := fs.integrate(ctx, fs.X0, grid, opt, func(k int, x []float64) {
		row := flat[k*nv : (k+1)*nv : (k+1)*nv]
		copy(row, x)
		xs = append(xs, row)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			runctx.Record(fs.Obs, "gpepa.fluid", cerr)
			ec := runctx.New("gpepa.fluid", cerr, len(xs), len(grid), "grid points")
			ec.Partial = &FluidResult{System: fs, Times: grid[:len(xs)], X: xs}
			return nil, ec
		}
		return nil, err
	}
	return &FluidResult{System: fs, Times: grid, X: xs}, nil
}

// integrate runs the fluid ODEs from x0 across grid, polling ctx before
// every adaptive step, and hands each grid state to visit in the
// integrator's own buffer (ode.DormandPrinceVisit): a caller copies what
// it keeps. Every fluid solve goes through it, so none writes fs.
func (fs *FluidSystem) integrate(ctx context.Context, x0, grid []float64, opt SolveOptions, visit func(k int, x []float64)) error {
	if opt.RelTol <= 0 {
		opt.RelTol = 1e-8
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 1e-10
	}
	_, _, err := ode.DormandPrinceVisit(func(t float64, y, dst []float64) {
		fs.Derivative(y, dst)
	}, x0, grid, ode.DormandPrinceOptions{RelTol: opt.RelTol, AbsTol: opt.AbsTol, Cancel: ctx.Err}, visit)
	if err != nil {
		return fmt.Errorf("gpepa: fluid integration: %w", err)
	}
	return nil
}

// Series extracts the time series of one local state.
func (r *FluidResult) Series(group, state string) ([]float64, error) {
	idx, ok := r.System.Index[LocalState{Group: group, State: state}]
	if !ok {
		return nil, fmt.Errorf("gpepa: unknown local state %s:%s", group, state)
	}
	out := make([]float64, len(r.X))
	for k, x := range r.X {
		out[k] = x[idx]
	}
	return out, nil
}

// ThroughputSeries evaluates the fluid throughput of an action over time.
func (r *FluidResult) ThroughputSeries(action string) []float64 {
	out := make([]float64, len(r.X))
	for k, x := range r.X {
		out[k] = r.System.ActionThroughput(action, x)
	}
	return out
}

// Final returns the final sampled population vector.
func (r *FluidResult) Final() []float64 { return r.X[len(r.X)-1] }

package derive

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/pepa"
)

// This file compiles a model once and derives its states as small integer
// vectors. PEPA's two-level grammar (pepa.Check) keeps every sequential
// component sequential, so the cooperation and hiding structure of the
// system equation never changes: only its leaves move, each through the
// rows of one local-derivative table (Locals). A state is the vector of
// its leaves' local state ids, followed by one flag per composite
// constant that no activity has unfolded yet. Derivation combines table
// rows by Hillston's rules in exactly the order the rules apply to the
// corresponding process term, and a state's string is rendered once, as
// pepa.AppendString would render that term.

// nodeKind is the operator of a compiled node.
type nodeKind uint8

const (
	leafNode nodeKind = iota // a sequential component
	coopNode                 // a cooperation
	hideNode                 // a hiding
	foldNode                 // a composite constant, rendered by name until it moves
)

// node is one operator of a model's fixed structure.
type node struct {
	kind nodeKind
	// slot is a leaf's position in the state vector, or the position of a
	// fold's flag (nonzero while folded).
	slot int32
	// kids are a cooperation's operands in term order, or the body of a
	// hiding or fold. A fold's body is in aggregation canonical form when
	// aggregating; raw is its body as written, which derives while the
	// constant is still folded.
	kids []int32
	raw  int32
	// set lists a cooperation or hiding set's action indices in set
	// order; in marks its members.
	set []int32
	in  []bool
	// text is a cooperation's " <L> ", a hiding's "/{L}", or a fold's
	// constant name.
	text string
	// sorted marks an aggregated cooperation chain, whose operands derive
	// and render in canonical order; merge marks a fold whose unfolded body
	// is a chain over its enclosing chain's set, and so joins that chain.
	sorted, merge bool
}

// compiled is a model's structure over its local-derivative table.
type compiled struct {
	locals *Locals
	nodes  []node
	root   int32
	init   []int32    // the initial state vector
	folds  []foldSpan // by fold flag
	tau    int32      // index of pepa.Tau
}

// foldSpan is a fold flag's vector slot and the slots of the leaves
// below it: a move that touches one of those leaves unfolds it.
type foldSpan struct{ slot, lo, hi int32 }

// builder compiles a system equation into nodes. Leaves and fold flags
// take vector slots left to right, so a fold's raw and canonical bodies,
// compiled one after the other from the same counters, share their slots.
type builder struct {
	m         *pepa.Model
	aggregate bool
	nodes     []node
	sets      [][]string // each node's set, by node
	seeds     []pepa.Process
	leaves    int32
	flags     int32
	spans     []foldSpan // by flag, leaf slots only
}

func (b *builder) add(n node, set []string) int32 {
	b.nodes = append(b.nodes, n)
	b.sets = append(b.sets, set)
	return int32(len(b.nodes) - 1)
}

func (b *builder) leaf(p pepa.Process) int32 {
	slot := b.leaves
	b.leaves++
	if int(slot) == len(b.seeds) {
		b.seeds = append(b.seeds, p)
	}
	return b.add(node{kind: leafNode, slot: slot}, nil)
}

// term compiles p as written: every cooperation a binary node.
func (b *builder) term(p pepa.Process) (int32, error) {
	switch t := p.(type) {
	case *pepa.Coop:
		l, err := b.term(t.Left)
		if err != nil {
			return 0, err
		}
		r, err := b.term(t.Right)
		if err != nil {
			return 0, err
		}
		return b.add(node{kind: coopNode, kids: []int32{l, r}}, t.Set), nil
	case *pepa.Hide:
		k, err := b.term(t.Proc)
		if err != nil {
			return 0, err
		}
		return b.add(node{kind: hideNode, kids: []int32{k}}, t.Set), nil
	case *pepa.Const:
		return b.constant(t, nil)
	}
	return b.leaf(p), nil
}

// canonical compiles p in aggregation canonical form: each maximal
// cooperation chain over one set becomes one sorted node. chain is the
// chain p is an operand of, if any.
func (b *builder) canonical(p pepa.Process, chain *pepa.Coop) (int32, error) {
	switch t := p.(type) {
	case *pepa.Coop:
		ops := chainOperands(nil, t, t.Set)
		kids := make([]int32, len(ops))
		for i, op := range ops {
			k, err := b.canonical(op, t)
			if err != nil {
				return 0, err
			}
			kids[i] = k
		}
		return b.add(node{kind: coopNode, kids: kids, sorted: true}, t.Set), nil
	case *pepa.Hide:
		k, err := b.canonical(t.Proc, nil)
		if err != nil {
			return 0, err
		}
		return b.add(node{kind: hideNode, kids: []int32{k}}, t.Set), nil
	case *pepa.Const:
		return b.constant(t, chain)
	}
	return b.leaf(p), nil
}

// constant compiles a constant: a leaf when it names a sequential
// component, else a fold over its definition (followed through further
// constants, which never render once the outer one unfolds).
func (b *builder) constant(c *pepa.Const, chain *pepa.Coop) (int32, error) {
	body, err := b.m.Unfold(c)
	if err != nil {
		return 0, fmt.Errorf("derive: %w", err)
	}
	if !pepa.IsComposite(body) {
		return b.leaf(c), nil
	}
	n := node{kind: foldNode, slot: b.flags, text: c.Name}
	lo := b.leaves
	b.flags++
	leaves, flags := b.leaves, b.flags
	if n.raw, err = b.term(body); err != nil {
		return 0, err
	}
	n.kids = []int32{n.raw}
	if b.aggregate {
		rawLeaves, rawFlags := b.leaves, b.flags
		b.leaves, b.flags = leaves, flags
		canon, err := b.canonical(body, nil)
		if err != nil {
			return 0, err
		}
		if b.leaves != rawLeaves || b.flags != rawFlags {
			panic("derive: raw and canonical bodies of a fold disagree on slots")
		}
		n.kids[0] = canon
		coop, ok := body.(*pepa.Coop)
		n.merge = ok && chain != nil && slices.Equal(coop.Set, chain.Set)
	}
	for len(b.spans) <= int(n.slot) {
		b.spans = append(b.spans, foldSpan{})
	}
	b.spans[n.slot] = foldSpan{lo: lo, hi: b.leaves}
	return b.add(n, nil), nil
}

// compile builds the model's structure and its local-derivative table.
func compile(m *pepa.Model, aggregate bool) (*compiled, error) {
	if m.System == nil {
		return nil, fmt.Errorf("derive: model has no system equation")
	}
	b := &builder{m: m, aggregate: aggregate}
	var root int32
	var err error
	if aggregate {
		root, err = b.canonical(m.System, nil)
	} else {
		root, err = b.term(m.System)
	}
	if err != nil {
		return nil, err
	}
	locals, ids, err := newLocals(m, b.seeds)
	if err != nil {
		return nil, err
	}
	c := &compiled{locals: locals, nodes: b.nodes, root: root, tau: locals.action(pepa.Tau)}
	for i, set := range b.sets {
		for _, a := range set {
			c.nodes[i].set = append(c.nodes[i].set, locals.action(a))
		}
	}
	for i, set := range b.sets {
		n := &c.nodes[i]
		switch n.kind {
		case coopNode:
			n.text = " <" + strings.Join(set, ",") + "> "
		case hideNode:
			n.text = "/{" + strings.Join(set, ",") + "}"
		default:
			continue
		}
		n.in = make([]bool, len(locals.actions))
		for _, a := range n.set {
			n.in[a] = true
		}
	}
	// Fold flags sit after the leaves.
	for i := range c.nodes {
		if c.nodes[i].kind == foldNode {
			c.nodes[i].slot += b.leaves
		}
	}
	c.folds = b.spans
	for i := range c.folds {
		c.folds[i].slot = b.leaves + int32(i)
	}
	c.init = make([]int32, int(b.leaves)+int(b.flags))
	copy(c.init, ids)
	for i := int(b.leaves); i < len(c.init); i++ {
		c.init[i] = 1
	}
	return c, nil
}

// move is one derived activity of a state: its action, rate and rate
// source, and the span of the walker's change list it applies.
type move struct {
	act    int32
	rate   pepa.Rate
	src    RateSrc
	c0, c1 int32
}

// change sets one leaf slot to a new local state.
type change struct{ slot, to int32 }

// Walker derives a compiled model's states on demand: Explore walks every
// reachable state with it, and the simulator only the states a trajectory
// visits. States are numbered in discovery order from 0, the system
// equation. Plain derivation indexes states by their vectors; aggregated
// derivation by their canonical strings, since operands that differ only
// by a permutation must share a state.
type Walker struct {
	c      *compiled
	max    int // bound on the number of states; 0 is none
	stride int
	vecs   []int32  // state vectors back to back
	strs   []string // state strings
	table  []int32  // plain: open-addressing index of vecs, id+1 per slot
	byKey  map[string]int

	moves   []move
	changes []change
	vec     []int32
	buf     []byte
	out     []Transition
}

// Transition is one derivable activity of a walker state, valid until the
// walker's next Transitions call.
type Transition struct {
	Action string
	Rate   pepa.Rate
	Src    RateSrc

	mv int32 // index in the walker's move list
}

// NewWalker compiles the model, which should have passed pepa.Check, and
// numbers its system equation as state 0. opt.Aggregate lumps states as
// Explore does; opt.MaxStates bounds the states the walker numbers (zero
// or less for no bound).
func NewWalker(m *pepa.Model, opt Options) (*Walker, error) {
	c, err := compile(m, opt.Aggregate)
	if err != nil {
		return nil, err
	}
	w := &Walker{c: c, max: opt.MaxStates, stride: len(c.init), vec: make([]int32, len(c.init))}
	if opt.Aggregate {
		w.byKey = map[string]int{}
	} else {
		w.table = make([]int32, 16)
	}
	if _, err := w.intern(c.init); err != nil {
		return nil, err
	}
	return w, nil
}

// NumStates returns how many states the walker has numbered.
func (w *Walker) NumStates() int { return len(w.strs) }

// State returns the canonical syntax of state s.
func (w *Walker) State(s int) string { return w.strs[s] }

// Transitions derives the activities of state s in the order Hillston's
// rules derive them from its process term.
func (w *Walker) Transitions(s int) ([]Transition, error) {
	a, b, err := w.derive(s)
	if err != nil {
		return nil, err
	}
	w.out = w.out[:0]
	for i := a; i < b; i++ {
		mv := &w.moves[i]
		w.out = append(w.out, Transition{Action: w.c.locals.actions[mv.act], Rate: mv.rate, Src: mv.src, mv: int32(i)})
	}
	return w.out, nil
}

// Target returns the state a transition of s, from the latest
// Transitions call, leads to, numbering it if new.
func (w *Walker) Target(s int, t Transition) (int, error) {
	return w.target(s, &w.moves[t.mv])
}

// vector returns state s's vector.
func (w *Walker) vector(s int) []int32 { return w.vecs[s*w.stride : (s+1)*w.stride] }

// derive derives state s into the move list, returning its span.
func (w *Walker) derive(s int) (int, int, error) {
	w.moves, w.changes = w.moves[:0], w.changes[:0]
	return w.node(w.c.root, w.vector(s))
}

// target applies a move to state s and numbers the resulting state. A
// move unfolds every fold whose leaves it touches.
func (w *Walker) target(s int, mv *move) (int, error) {
	v := w.vec
	copy(v, w.vector(s))
	chs := w.changes[mv.c0:mv.c1]
	for _, ch := range chs {
		v[ch.slot] = ch.to
	}
	for _, f := range w.c.folds {
		if v[f.slot] == 0 {
			continue
		}
		for _, ch := range chs {
			if ch.slot >= f.lo && ch.slot < f.hi {
				v[f.slot] = 0
				break
			}
		}
	}
	return w.intern(v)
}

// intern returns the number of the state with vector v, numbering it if
// new.
func (w *Walker) intern(v []int32) (int, error) {
	if w.byKey != nil {
		w.buf = w.render(w.buf[:0], w.c.root, v)
		if id, ok := w.byKey[string(w.buf)]; ok {
			return id, nil
		}
		if err := w.room(); err != nil {
			return 0, err
		}
		key := string(w.buf)
		w.byKey[key] = len(w.strs)
		return w.push(v, key), nil
	}
	h := hashVec(v)
	mask := uint32(len(w.table) - 1)
	i := h & mask
	for ; w.table[i] != 0; i = (i + 1) & mask {
		if slices.Equal(w.vector(int(w.table[i]-1)), v) {
			return int(w.table[i] - 1), nil
		}
	}
	if err := w.room(); err != nil {
		return 0, err
	}
	w.buf = w.render(w.buf[:0], w.c.root, v)
	id := w.push(v, string(w.buf))
	w.table[i] = int32(id + 1)
	if 2*len(w.strs) > len(w.table) {
		w.rehash()
	}
	return id, nil
}

// room reports whether another state fits under the bound.
func (w *Walker) room() error {
	if w.max > 0 && len(w.strs) >= w.max {
		return fmt.Errorf("%w (%d states)", ErrStateSpaceTooLarge, w.max)
	}
	return nil
}

func (w *Walker) push(v []int32, s string) int {
	w.vecs = append(grow(w.vecs, len(v)), v...)
	w.strs = append(grow(w.strs, 1), s)
	return len(w.strs) - 1
}

// grow returns s with room for n more elements, doubling its capacity when
// it is full: per-state arrays grow with the state count, and append's
// gentler growth for large slices would copy them several times over.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n, 16))
	copy(out, s)
	return out
}

// rehash doubles the vector index and reinserts every state.
func (w *Walker) rehash() {
	w.table = make([]int32, 2*len(w.table))
	mask := uint32(len(w.table) - 1)
	for id := range w.strs {
		i := hashVec(w.vector(id)) & mask
		for w.table[i] != 0 {
			i = (i + 1) & mask
		}
		w.table[i] = int32(id + 1)
	}
}

// hashVec is FNV-1a over a vector's entries.
func hashVec(v []int32) uint32 {
	h := uint32(2166136261)
	for _, x := range v {
		h = (h ^ uint32(x)) * 16777619
	}
	return h ^ h>>15
}

// node derives node id under vector v, appending its moves to the move
// list and returning their span.
func (w *Walker) node(id int32, v []int32) (int, int, error) {
	n := &w.c.nodes[id]
	switch n.kind {
	case leafNode:
		a := len(w.moves)
		for _, lt := range w.c.locals.Trans[v[n.slot]] {
			c := int32(len(w.changes))
			w.changes = append(w.changes, change{n.slot, int32(lt.To)})
			w.moves = append(w.moves, move{act: lt.act, rate: lt.Rate, src: lt.Src, c0: c, c1: c + 1})
		}
		return a, len(w.moves), nil
	case hideNode:
		a, b, err := w.node(n.kids[0], v)
		for i := a; i < b; i++ {
			if n.in[w.moves[i].act] {
				w.moves[i].act = w.c.tau
			}
		}
		return a, b, err
	case foldNode:
		if v[n.slot] != 0 {
			return w.node(n.raw, v)
		}
		return w.node(n.kids[0], v)
	}
	if !n.sorted {
		la, lb, err := w.node(n.kids[0], v)
		if err != nil {
			return 0, 0, err
		}
		ra, rb, err := w.node(n.kids[1], v)
		if err != nil {
			return 0, 0, err
		}
		a, b, err := w.coop(n, la, lb, ra, rb)
		if err != nil {
			return 0, 0, coopErr(err, w.render(nil, n.kids[0], v), w.render(nil, n.kids[1], v))
		}
		return a, b, nil
	}
	// An aggregated chain derives as the left-nested cooperation of its
	// operands in canonical order.
	ops, keys := w.order(n, v)
	a, b, err := w.node(ops[0].node, v)
	if err != nil {
		return 0, 0, err
	}
	for i := 1; i < len(ops); i++ {
		ra, rb, err := w.node(ops[i].node, v)
		if err != nil {
			return 0, 0, err
		}
		if a, b, err = w.coop(n, a, b, ra, rb); err != nil {
			return 0, 0, coopErr(err, w.chain(nil, n, ops[:i], keys, v), keys[ops[i].start:ops[i].end])
		}
	}
	return a, b, nil
}

// sideError is an apparent-rate failure on one side of a cooperation.
type sideError struct {
	right  bool
	action string
	err    error
}

func (e *sideError) Error() string { return e.err.Error() }

// coopErr words a cooperation failure, naming the failing side's term
// (rendered only on this error path).
func coopErr(err error, left, right []byte) error {
	se, ok := err.(*sideError)
	if !ok {
		return err
	}
	term := left
	if se.right {
		term = right
	}
	return fmt.Errorf("derive: apparent rate of %q in %s: %w", se.action, term, se.err)
}

// coop combines the moves of a cooperation's two sides, spans [la, lb)
// and [ra, rb), by the SOS rules: the left side's moves outside the set,
// then the right side's, then for each shared action in set order every
// pair of moves at the cooperation rate over the apparent rates.
func (w *Walker) coop(n *node, la, lb, ra, rb int) (int, int, error) {
	a := len(w.moves)
	for i := la; i < lb; i++ {
		if !n.in[w.moves[i].act] {
			w.moves = append(w.moves, w.moves[i])
		}
	}
	for i := ra; i < rb; i++ {
		if !n.in[w.moves[i].act] {
			w.moves = append(w.moves, w.moves[i])
		}
	}
	for _, x := range n.set {
		raL, countL, err := w.apparent(la, lb, x)
		if err != nil {
			return 0, 0, &sideError{action: w.c.locals.actions[x], err: err}
		}
		raR, countR, err := w.apparent(ra, rb, x)
		if err != nil {
			return 0, 0, &sideError{right: true, action: w.c.locals.actions[x], err: err}
		}
		if raL.IsZero() || raR.IsZero() {
			continue // one side cannot participate: the action blocks
		}
		if raL.Passive && raR.Passive {
			return 0, 0, fmt.Errorf("derive: action %q is passive on both sides of a cooperation; the model never resolves its rate", w.c.locals.actions[x])
		}
		// Provenance for the single-active/single-passive shape: with one
		// transition per side the apparent-rate ratios are x/x (exactly 1),
		// the min picks the active side, and the cooperation rate equals the
		// active transition's rate bit for bit — so its source carries over.
		// The singleton condition is structural (transition counts), never a
		// value comparison: r + ε == r for small ε would fool a value check.
		singleton := countL == 1 && countR == 1
		for i := la; i < lb; i++ {
			if w.moves[i].act != x {
				continue
			}
			for j := ra; j < rb; j++ {
				if w.moves[j].act != x {
					continue
				}
				tl, tr := w.moves[i], w.moves[j]
				var src RateSrc
				switch {
				case singleton && raR.Passive && !raL.Passive:
					src = tl.src
				case singleton && raL.Passive && !raR.Passive:
					src = tr.src
				}
				c := int32(len(w.changes))
				w.changes = append(w.changes, w.changes[tl.c0:tl.c1]...)
				w.changes = append(w.changes, w.changes[tr.c0:tr.c1]...)
				w.moves = append(w.moves, move{
					act:  x,
					rate: pepa.CoopRate(tl.rate, raL, tr.rate, raR),
					src:  src,
					c0:   c,
					c1:   int32(len(w.changes)),
				})
			}
		}
	}
	return a, len(w.moves), nil
}

// apparent sums the rates of the moves in [a, b) that perform action x,
// in order, and counts them.
func (w *Walker) apparent(a, b int, x int32) (pepa.Rate, int, error) {
	var total pepa.Rate
	n := 0
	for i := a; i < b; i++ {
		if w.moves[i].act != x {
			continue
		}
		sum, err := total.Add(w.moves[i].rate)
		if err != nil {
			return pepa.Rate{}, 0, err
		}
		total = sum
		n++
	}
	return total, n, nil
}

// kind returns the operator at the top of node id's term under v.
func (w *Walker) kind(id int32, v []int32) termKind {
	n := &w.c.nodes[id]
	switch n.kind {
	case leafNode:
		return w.c.locals.kinds[v[n.slot]]
	case coopNode:
		return kindCoop
	case hideNode:
		return kindHide
	}
	if v[n.slot] != 0 {
		return kindConst
	}
	return w.kind(n.kids[0], v)
}

// render appends node id's term under v as pepa.AppendString renders it.
func (w *Walker) render(dst []byte, id int32, v []int32) []byte {
	n := &w.c.nodes[id]
	switch n.kind {
	case leafNode:
		return append(dst, w.c.locals.States[v[n.slot]]...)
	case foldNode:
		if v[n.slot] != 0 {
			return append(dst, n.text...)
		}
		return w.render(dst, n.kids[0], v)
	case hideNode:
		if w.kind(n.kids[0], v) == kindConst {
			dst = w.render(dst, n.kids[0], v)
		} else {
			dst = append(dst, '(')
			dst = w.render(dst, n.kids[0], v)
			dst = append(dst, ')')
		}
		return append(dst, n.text...)
	}
	if n.sorted {
		ops, keys := w.order(n, v)
		return w.chain(dst, n, ops, keys, v)
	}
	l, r := n.kids[0], n.kids[1]
	if w.kind(l, v) == kindChoice {
		dst = append(dst, '(')
		dst = w.render(dst, l, v)
		dst = append(dst, ')')
	} else {
		dst = w.render(dst, l, v)
	}
	dst = append(dst, n.text...)
	if k := w.kind(r, v); k == kindChoice || k == kindCoop {
		dst = append(dst, '(')
		dst = w.render(dst, r, v)
		return append(dst, ')')
	}
	return w.render(dst, r, v)
}

package derive

import (
	"bytes"
	"slices"

	"repro/internal/pepa"
)

// This file implements the workbench's aggregation (lumping) of states
// that differ only by a permutation of interchangeable parallel
// components. PEPA cooperation over a fixed action set is commutative and
// associative, so a chain P1 <L> P2 <L> ... <L> Pn can be put in a
// canonical operand order; states that are permutations of one another
// collapse to a single canonical state. For n replicas of a k-state
// component this reduces the state count from k^n to C(n+k-1, k-1) — the
// standard mitigation for the "state-space explosion" of §II.A.
//
// The canonical form flattens each maximal cooperation chain over one
// action set, puts its operands (each in canonical form) in the order of
// their canonical syntax, and rebuilds the chain left-associatively; a
// sequential component or a still-folded constant is its own canonical
// form. An aggregated walker compiles every chain into one sorted node,
// orders its operands per state, and indexes states by canonical string.
//
// The lumped chain is exactly Markov-equivalent for all measures definable
// on canonical states (ordinary lumpability of the symmetric partition).

// operand is one operand of an aggregated chain, with the span of its
// canonical syntax in the chain's key buffer.
type operand struct {
	node       int32
	start, end int
}

// order returns chain n's operands under v in canonical order, with the
// buffer their canonical syntax is rendered into. An unfolded fold that
// merges into the chain contributes its body's operands.
func (w *Walker) order(n *node, v []int32) ([]operand, []byte) {
	ops := w.operands(nil, n, v)
	var keys []byte
	for i := range ops {
		ops[i].start = len(keys)
		keys = w.render(keys, ops[i].node, v)
		ops[i].end = len(keys)
	}
	slices.SortStableFunc(ops, func(a, b operand) int {
		return bytes.Compare(keys[a.start:a.end], keys[b.start:b.end])
	})
	return ops, keys
}

// operands appends chain n's operands under v, in term order.
func (w *Walker) operands(dst []operand, n *node, v []int32) []operand {
	for _, k := range n.kids {
		if kn := &w.c.nodes[k]; kn.kind == foldNode && kn.merge && v[kn.slot] == 0 {
			dst = w.operands(dst, &w.c.nodes[kn.kids[0]], v)
			continue
		}
		dst = append(dst, operand{node: k})
	}
	return dst
}

// chain appends the left-nested cooperation of ops over n's set as
// pepa.AppendString renders it: the first operand parenthesized only if a
// choice, the others also if a cooperation.
func (w *Walker) chain(dst []byte, n *node, ops []operand, keys []byte, v []int32) []byte {
	for i, op := range ops {
		if len(ops) == 1 {
			return append(dst, keys[op.start:op.end]...)
		}
		if i > 0 {
			dst = append(dst, n.text...)
		}
		k := w.kind(op.node, v)
		if k == kindChoice || (i > 0 && k == kindCoop) {
			dst = append(dst, '(')
			dst = append(dst, keys[op.start:op.end]...)
			dst = append(dst, ')')
		} else {
			dst = append(dst, keys[op.start:op.end]...)
		}
	}
	return dst
}

// chainOperands appends the operands of the maximal cooperation chain
// over set rooted at p (both spines), in order.
func chainOperands(dst []pepa.Process, p pepa.Process, set []string) []pepa.Process {
	if sub, ok := p.(*pepa.Coop); ok && slices.Equal(sub.Set, set) {
		return chainOperands(chainOperands(dst, sub.Left, set), sub.Right, set)
	}
	return append(dst, p)
}

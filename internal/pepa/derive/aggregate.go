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
// The lumped chain is exactly Markov-equivalent for all measures definable
// on canonical states (ordinary lumpability of the symmetric partition).

// Canonicalize rewrites a process term into aggregation canonical form:
// maximal cooperation chains over one action set are flattened, operands
// canonicalized recursively and sorted by their canonical syntax, and the
// chain rebuilt left-associatively over its own (already normalized) set.
// Sequential constructs are returned unchanged.
func Canonicalize(p pepa.Process) pepa.Process {
	switch t := p.(type) {
	case *pepa.Coop:
		ops := chainOperands(make([]operand, 0, chainLen(t, t.Set)), t, t.Set)
		// Render each canonical operand once, back to back into one
		// buffer; the sort compares spans of it.
		var buf []byte
		for i := range ops {
			ops[i].term = Canonicalize(ops[i].term)
			ops[i].start = len(buf)
			buf = pepa.AppendString(buf, ops[i].term)
			ops[i].end = len(buf)
		}
		slices.SortStableFunc(ops, func(a, b operand) int {
			return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
		})
		out := ops[0].term
		for _, op := range ops[1:] {
			out = &pepa.Coop{Left: out, Right: op.term, Set: t.Set}
		}
		return out
	case *pepa.Hide:
		return &pepa.Hide{Proc: Canonicalize(t.Proc), Set: t.Set}
	default:
		return p
	}
}

// operand is one operand of a flattened cooperation chain, with the span
// of the buffer its canonical syntax is rendered into.
type operand struct {
	term       pepa.Process
	start, end int
}

// chainOperands appends the operands of the maximal cooperation chain
// over set rooted at p (both spines), in order.
func chainOperands(dst []operand, p pepa.Process, set []string) []operand {
	if sub, ok := p.(*pepa.Coop); ok && sameSet(sub.Set, set) {
		return chainOperands(chainOperands(dst, sub.Left, set), sub.Right, set)
	}
	return append(dst, operand{term: p})
}

// chainLen counts the operands chainOperands collects.
func chainLen(p pepa.Process, set []string) int {
	if sub, ok := p.(*pepa.Coop); ok && sameSet(sub.Set, set) {
		return chainLen(sub.Left, set) + chainLen(sub.Right, set)
	}
	return 1
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

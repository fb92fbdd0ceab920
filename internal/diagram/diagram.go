// Package diagram renders the activity/derivation diagrams the PEPA
// workbench draws (Fig 2 of the paper): the states of a derived model and
// the activities connecting them, as Graphviz DOT and as plain text.
package diagram

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pepa/derive"
)

// DOT renders the state space in Graphviz syntax under the caption title
// (none when empty). States are numbered S0..Sn, and a legend comment
// maps each number to its canonical term. Output is deterministic:
// states by id, transitions in stored order.
func DOT(ss *derive.StateSpace, title string) string {
	var b strings.Builder
	b.WriteString("digraph activity {\n")
	b.WriteString("  rankdir=LR;\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q;\n", title)
	}
	for id := range ss.States {
		shape := "circle"
		if id == 0 {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [label=\"S%d\", shape=%s];\n", id, id, shape)
	}
	for id := range ss.States {
		for _, tr := range ss.Trans[id] {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"(%s, %.4g)\"];\n", tr.From, tr.To, tr.Action, tr.Rate)
		}
	}
	b.WriteString("  // legend\n")
	for id, term := range ss.States {
		fmt.Fprintf(&b, "  // S%d = %s\n", id, term)
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders a plain-text activity table under the caption title (none
// when empty): one line per transition plus a state legend, suitable for
// terminal output and golden tests.
func Text(ss *derive.StateSpace, title string) string {
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
		b.WriteString(strings.Repeat("=", len(title)) + "\n")
	}
	fmt.Fprintf(&b, "states: %d, transitions: %d\n", ss.NumStates(), ss.NumTransitions())
	for id, term := range ss.States {
		marker := " "
		if id == 0 {
			marker = ">"
		}
		if len(ss.Trans[id]) == 0 {
			marker = "*" // absorbing
		}
		fmt.Fprintf(&b, "%s S%-3d %s\n", marker, id, term)
	}
	b.WriteString("activities:\n")
	for id := range ss.States {
		for _, tr := range ss.Trans[id] {
			fmt.Fprintf(&b, "  S%d --(%s, %.4g)--> S%d\n", tr.From, tr.Action, tr.Rate, tr.To)
		}
	}
	return b.String()
}

// ActionSummary tabulates, per action type, the number of transitions and
// the total rate mass — the "activity summary" panel of the workbench.
func ActionSummary(ss *derive.StateSpace) string {
	type row struct {
		count int
		total float64
	}
	rows := map[string]*row{}
	for id := range ss.States {
		for _, tr := range ss.Trans[id] {
			r := rows[tr.Action]
			if r == nil {
				r = &row{}
				rows[tr.Action] = r
			}
			r.count++
			r.total += tr.Rate
		}
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("action\ttransitions\ttotal-rate\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s\t%d\t%.6g\n", n, rows[n].count, rows[n].total)
	}
	return b.String()
}

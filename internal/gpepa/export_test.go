package gpepa

// LocalTransitions exposes a group's compiled local transitions to the
// external digest test, in compile order.
func LocalTransitions(fs *FluidSystem, label string) (actions []string, rates []float64, from, to []int) {
	for gi, g := range fs.groups {
		if g.Label != label {
			continue
		}
		leaf := fs.leaves[gi]
		actions = make([]string, len(leaf.trans))
		for a, ks := range leaf.byAction {
			for _, k := range ks {
				actions[k] = fs.Actions[a]
			}
		}
		for _, tr := range leaf.trans {
			rates = append(rates, tr.rate)
			from = append(from, tr.from)
			to = append(to, tr.to)
		}
	}
	return actions, rates, from, to
}

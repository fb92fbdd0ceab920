package gpepa

// LocalTransitions exposes a group's compiled local transitions to the
// external digest test, in compile order.
func LocalTransitions(fs *FluidSystem, label string) (actions []string, rates []float64, from, to []int) {
	for _, tr := range fs.transByGrp[label] {
		actions = append(actions, tr.action)
		rates = append(rates, tr.rate)
		from = append(from, tr.from)
		to = append(to, tr.to)
	}
	return actions, rates, from, to
}
